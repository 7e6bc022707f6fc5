package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// gaugeRef is the time a gauge reading takes on the reference host, a
// 2-vCPU Intel Xeon virtual machine in a quiet hour. Timings are reported
// at that speed.
const gaugeRef = 150 * time.Microsecond

// speedWindow is how far around an op the gauge readings that set its
// scale may lie. The host's speed moves over seconds, so readings this
// close describe the speed the op ran at, and the median of those around
// it is not thrown off by one reading slowed by the program's own garbage
// collector.
const speedWindow = 250 * time.Millisecond

const (
	gaugeChunks = 4   // chunks of one reading, handed out to the workers one at a time
	gaugeRefs   = 16  // series each chunk compares its query with
	gaugeLen    = 128 // length of the gauge's series
	gaugeReps   = 24  // times each chunk repeats its panel of distances
	gaugeDPLen  = 64  // length of the prefixes each chunk's DTW recurrence aligns
)

// gauge measures how fast the host runs the loops the engines run, at the
// moment it is read. On a shared host the same code runs up to 2x slower
// for minutes at a time as other work comes and goes on the same physical
// cores. How much a loop slows depends on its kind: most for one that
// keeps several independent sums in flight, as the repository's lock-step
// panel kernels do, less for a recurrence whose every cell waits for the
// one before, as the elastic DPs do. A reading runs both, for about equal
// time, in code of its own, so no change to the repository moves it,
// split across GOMAXPROCS goroutines as the engines split their work. An
// op's latency divided by the readings around it is the code's own cost.
type gauge struct {
	q, refs [][]float64
	next    atomic.Int64
	wg      sync.WaitGroup
	rows    [][2][]float64 // per worker: the DTW recurrence's two rows
	sums    []float64      // per worker: keeps the loops from being optimized away
}

func newGauge() *gauge {
	rng := rand.New(rand.NewSource(1))
	series := func() []float64 {
		s := make([]float64, gaugeLen)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		return s
	}
	w := runtime.GOMAXPROCS(0)
	g := &gauge{rows: make([][2][]float64, w), sums: make([]float64, w)}
	for k := range g.rows {
		g.rows[k] = [2][]float64{make([]float64, gaugeDPLen+1), make([]float64, gaugeDPLen+1)}
	}
	for i := 0; i < gaugeRefs; i++ {
		g.q, g.refs = append(g.q, series()), append(g.refs, series())
	}
	return g
}

// read runs the gauge's fixed work twice and returns how long the second
// run took: the first brings the gauge's series back into the caches the
// op before it filled, so that the reading does not depend on how much
// memory that op touched.
func (g *gauge) read() time.Duration {
	g.run()
	start := time.Now()
	g.run()
	return time.Since(start)
}

func (g *gauge) run() {
	w := min(runtime.GOMAXPROCS(0), len(g.sums))
	g.next.Store(0)
	g.wg.Add(w)
	for k := 0; k < w; k++ {
		go g.work(k)
	}
	g.wg.Wait()
}

func (g *gauge) work(k int) {
	defer g.wg.Done()
	for c := int(g.next.Add(1)) - 1; c < gaugeChunks; c = int(g.next.Add(1)) - 1 {
		q := g.q[c%len(g.q)]
		g.sums[k] += g.panel(q) + g.dtw(q, g.refs[c%len(g.refs)], g.rows[k][0], g.rows[k][1])
	}
}

// panel sums the squared Euclidean distances from q to every reference,
// four references at a time with one accumulator each, gaugeReps times
// over.
func (g *gauge) panel(q []float64) float64 {
	s := 0.0
	for rep := 0; rep < gaugeReps; rep++ {
		for r := 0; r+4 <= len(g.refs); r += 4 {
			b0, b1, b2, b3 := g.refs[r][:len(q)], g.refs[r+1][:len(q)], g.refs[r+2][:len(q)], g.refs[r+3][:len(q)]
			var a0, a1, a2, a3 float64
			for j, x := range q {
				d0, d1, d2, d3 := x-b0[j], x-b1[j], x-b2[j], x-b3[j]
				a0 += d0 * d0
				a1 += d1 * d1
				a2 += d2 * d2
				a3 += d3 * d3
			}
			s += a0 + a1 + a2 + a3
		}
	}
	return s
}

// dtw returns the unconstrained DTW distance between the gaugeDPLen-long
// prefixes of a and b, using prev and cur as its rows.
func (g *gauge) dtw(a, b, prev, cur []float64) float64 {
	for j := range prev {
		prev[j] = math.Inf(1)
	}
	prev[0] = 0
	for i := 1; i <= gaugeDPLen; i++ {
		cur[0] = math.Inf(1)
		for j := 1; j <= gaugeDPLen; j++ {
			d := a[i-1] - b[j-1]
			cur[j] = d*d + min(prev[j-1], prev[j], cur[j-1])
		}
		prev, cur = cur, prev
	}
	return prev[gaugeDPLen]
}

// median returns the median of n readings in ms: the host's speed at one
// moment, as the drift diagnostics report it.
func (g *gauge) median(n int) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = ms(g.read())
	}
	return median(xs)
}

// interval is when something timed ran, as offsets from a timeline's
// origin.
type interval struct{ start, end time.Duration }

// reading is one gauge reading and when it was taken.
type reading struct{ at, took time.Duration }

// timeline keeps the gauge readings of one timed loop, so that every
// interval timed in it can be scaled by the readings around it once the
// loop is over, the readings after it included.
type timeline struct {
	g        *gauge
	origin   time.Time
	readings []reading
	spent    time.Duration // time spent reading the gauge
}

func newTimeline(g *gauge) *timeline { return &timeline{g: g, origin: time.Now()} }

// now returns the offset of the present from the origin.
func (tl *timeline) now() time.Duration { return time.Since(tl.origin) }

// read takes one gauge reading.
func (tl *timeline) read() {
	at := tl.now()
	took := tl.g.read()
	tl.readings = append(tl.readings, reading{at, took})
	tl.spent += tl.now() - at
}

// scaled returns the length of each interval, in ms at the reference
// host's speed: multiplied by gaugeRef over the median of the readings
// within speedWindow of it, the lower of the two middle ones when their
// number is even, since a disturbance only ever slows a reading. The
// intervals must be in order, and a reading must follow the last of them.
func (tl *timeline) scaled(ivs []interval) []float64 {
	out := make([]float64, len(ivs))
	var win []float64
	lo, hi := 0, 0
	for i, iv := range ivs {
		for lo < len(tl.readings) && tl.readings[lo].at < iv.start-speedWindow {
			lo++
		}
		for hi < len(tl.readings) && tl.readings[hi].at <= iv.end+speedWindow {
			hi++
		}
		win = win[:0]
		for _, r := range tl.readings[lo:hi] {
			win = append(win, float64(r.took))
		}
		sort.Float64s(win)
		out[i] = ms(iv.end-iv.start) * float64(gaugeRef) / win[(len(win)-1)/2]
	}
	return out
}

// gaugeMs returns every reading in ms.
func (tl *timeline) gaugeMs() []float64 {
	out := make([]float64, len(tl.readings))
	for i, r := range tl.readings {
		out[i] = ms(r.took)
	}
	return out
}
