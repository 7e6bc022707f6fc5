package fft

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// fuzzSeries decodes n values from data (little-endian float64s, reused
// cyclically; all zeros when data holds none). The fuzzed domain is finite
// values of magnitude in [1e-150, 1e150] and zero, where no product or
// sum in either route can overflow or fall to subnormals: anything else
// decodes as 0.
func fuzzSeries(data []byte, n int) []float64 {
	s := make([]float64, n)
	k := len(data) / 8
	if k == 0 {
		return s
	}
	for i := range s {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(i%k):]))
		if a := math.Abs(v); a >= 1e-150 && a <= 1e150 {
			s[i] = v
		}
	}
	return s
}

// FuzzCrossCorrelation checks every cross-correlation route of the
// real-input kernel on two finite series of lengths 0 to 300, unequal
// lengths allowed: CrossCorrelation and Convolve within 4·m·2^-52 of
// direct sums relative to ‖x‖‖y‖ (m the padded length); for equal lengths
// the plan routes bitwise equal to CrossCorrelation; and SlidingDots
// bitwise equal to CrossCorrelation at the non-negative shifts for every
// window w <= len(x).
func FuzzCrossCorrelation(f *testing.F) {
	const maxLen = 300
	encode := func(vals []float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	rng := rand.New(rand.NewSource(15))
	gauss := func(n int, scale float64) []byte {
		v := make([]float64, n)
		for i := range v {
			v[i] = scale * rng.NormFloat64()
		}
		return encode(v)
	}
	lengths := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300}
	for i, n := range lengths {
		f.Add(uint16(n), uint16(n), gauss(2*n, 1))
		f.Add(uint16(n), uint16(lengths[(i+5)%len(lengths)]), gauss(n+7, 1))
	}
	f.Add(uint16(0), uint16(5), gauss(5, 1))
	f.Add(uint16(64), uint16(64), []byte(nil)) // all-zero series
	f.Add(uint16(33), uint16(33), encode([]float64{0, 0, 1, 0}))
	// Magnitudes near the ends of the domain: |v| in [scale/2, scale].
	near := func(n int, scale float64) []byte {
		v := make([]float64, n)
		for i := range v {
			v[i] = scale * (0.5 + 0.5*rng.Float64())
			if rng.Intn(2) == 0 {
				v[i] = -v[i]
			}
		}
		return encode(v)
	}
	for _, scale := range []float64{1e150, 2e-150} {
		f.Add(uint16(100), uint16(100), near(200, scale))
		f.Add(uint16(17), uint16(129), near(146, scale))
		f.Add(uint16(64), uint16(64), encode([]float64{scale, -scale, 1, 2}))
	}
	f.Fuzz(func(t *testing.T, lx, ly uint16, data []byte) {
		nx, ny := int(lx)%(maxLen+1), int(ly)%(maxLen+1)
		vals := fuzzSeries(data, nx+ny)
		x, y := vals[:nx], vals[nx:]
		cc := CrossCorrelation(x, y)
		conv := Convolve(x, y)
		if nx == 0 || ny == 0 {
			if cc != nil || conv != nil {
				t.Fatalf("empty input: CrossCorrelation %v, Convolve %v", cc, conv)
			}
			return
		}
		var xx, yy float64
		for _, v := range x {
			xx += v * v
		}
		for _, v := range y {
			yy += v * v
		}
		m := paddedLen(nx + ny - 1)
		tol := 4 * float64(m) * 0x1p-52 * math.Sqrt(xx) * math.Sqrt(yy)
		naive := CrossCorrelationNaive(x, y)
		if len(cc) != len(naive) || len(conv) != len(naive) {
			t.Fatalf("lengths: CrossCorrelation %d, Convolve %d, want %d", len(cc), len(conv), len(naive))
		}
		for k := range naive {
			if d := math.Abs(cc[k] - naive[k]); !(d <= tol) {
				t.Fatalf("nx=%d ny=%d: cc[%d] = %v, direct %v (tolerance %v)", nx, ny, k, cc[k], naive[k], tol)
			}
			var direct float64
			for i := max(0, k-ny+1); i <= min(k, nx-1); i++ {
				direct += x[i] * y[k-i]
			}
			if d := math.Abs(conv[k] - direct); !(d <= tol) {
				t.Fatalf("nx=%d ny=%d: conv[%d] = %v, direct %v (tolerance %v)", nx, ny, k, conv[k], direct, tol)
			}
		}

		if nx == ny {
			p, q := NewPlan(x), NewPlan(y)
			routes := map[string][]float64{
				"CrossCorrelate":   p.CrossCorrelate(y),
				"CrossCorrelateTo": p.CrossCorrelateTo(q, make([]float64, 2*nx-1), make([]complex128, p.PaddedLen()/2)),
			}
			p.CrossCorrelateReduce(q, func(seq []float64) float64 {
				routes["CrossCorrelateReduce"] = append([]float64(nil), seq...)
				return 0
			})
			for name, got := range routes {
				for k := range cc {
					if math.Float64bits(got[k]) != math.Float64bits(cc[k]) {
						t.Fatalf("n=%d: %s[%d] = %v, CrossCorrelation %v", nx, name, k, got[k], cc[k])
					}
				}
			}
		}

		for w := 1; w <= nx; w++ {
			q := make([]float64, w) // y, repeated when shorter than w
			for i := range q {
				q[i] = y[i%ny]
			}
			p := NewSlidingPlan(x, w)
			dots := p.SlidingDots(q, make([]float64, nx-w+1), make([]complex128, p.PaddedLen()/2+1))
			want := CrossCorrelation(x, q)
			for s := range dots {
				if math.Float64bits(dots[s]) != math.Float64bits(want[s+w-1]) {
					t.Fatalf("nx=%d w=%d: SlidingDots[%d] = %v, CrossCorrelation %v", nx, w, s, dots[s], want[s+w-1])
				}
			}
		}
	})
}
