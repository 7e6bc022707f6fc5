package profile_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/profile"
)

// The distance-profile, top-k, motif and discord queries, all served by
// the one engine.

func distanceProfile(t, q []float64) []float64 {
	return profile.New(profile.Options{}).DistanceProfile(t, q, nil)
}

func selfJoin(t *testing.T, series []float64, w int, opts profile.Options) *profile.Result {
	t.Helper()
	res, err := profile.SelfJoin(context.Background(), series, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// naiveProfile is the O(n*w) reference: z-normalize every window and the
// query, then compute plain ED.
func naiveProfile(t, q []float64) []float64 {
	w := len(q)
	zq := dataset.ZNormalize(q)
	out := make([]float64, len(t)-w+1)
	for s := range out {
		zt := dataset.ZNormalize(t[s : s+w])
		var sum float64
		for i := range zq {
			d := zq[i] - zt[i]
			sum += d * d
		}
		out[s] = math.Sqrt(sum)
		// Degenerate windows: convention is max distance.
		if constant(t[s:s+w]) || constant(q) {
			out[s] = math.Sqrt(2 * float64(w))
		}
	}
	return out
}

func constant(x []float64) bool {
	for _, v := range x {
		if v != x[0] {
			return false
		}
	}
	return true
}

func TestDistanceProfileMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(100)
		w := 4 + rng.Intn(20)
		series := make([]float64, n)
		for i := range series {
			series[i] = rng.NormFloat64()
		}
		q := make([]float64, w)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		got := distanceProfile(series, q)
		want := naiveProfile(series, q)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDistanceProfileExactMatchIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	series := make([]float64, 200)
	for i := range series {
		series[i] = rng.NormFloat64()
	}
	q := append([]float64(nil), series[57:57+25]...)
	prof := distanceProfile(series, q)
	if prof[57] > 1e-6 {
		t.Fatalf("profile at exact match = %g, want ~0", prof[57])
	}
}

func TestDistanceProfileScaleInvariance(t *testing.T) {
	// z-normalized distance ignores amplitude and offset of the query.
	rng := rand.New(rand.NewSource(2))
	series := make([]float64, 150)
	for i := range series {
		series[i] = rng.NormFloat64()
	}
	q := append([]float64(nil), series[40:40+20]...)
	scaled := make([]float64, len(q))
	for i := range q {
		scaled[i] = 3*q[i] + 7
	}
	a := distanceProfile(series, q)
	b := distanceProfile(series, scaled)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-6 {
			t.Fatalf("profile differs under linear transform at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestDistanceProfileConstantWindows(t *testing.T) {
	series := []float64{1, 1, 1, 1, 5, 6, 7, 8}
	q := []float64{2, 3, 4}
	prof := distanceProfile(series, q)
	maxDist := math.Sqrt(2 * 3.0)
	if prof[0] != maxDist || prof[1] != maxDist {
		t.Fatalf("constant windows should score max distance: %v", prof[:2])
	}
	// The ramp at the end matches the query shape exactly.
	if prof[len(prof)-1] > 1e-6 {
		t.Fatalf("ramp match = %g, want ~0", prof[len(prof)-1])
	}
}

func TestDistanceProfilePanics(t *testing.T) {
	for _, c := range []struct{ n, w int }{{5, 1}, {5, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d w=%d: expected panic", c.n, c.w)
				}
			}()
			distanceProfile(make([]float64, c.n), make([]float64, c.w))
		}()
	}
}

// TestEngineDistanceProfileReuse pins engine reuse: repeated distance
// profiles on one Engine, into one reused buffer, are bitwise identical
// to one-shot profiles on fresh engines.
func TestEngineDistanceProfileReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	series := make([]float64, 120)
	for i := range series {
		series[i] = rng.NormFloat64()
	}
	const w = 9
	eng := profile.New(profile.Options{})
	var dst []float64
	for trial := 0; trial < 5; trial++ {
		q := series[trial*10 : trial*10+w]
		dst = eng.DistanceProfile(series, q, dst)
		want := distanceProfile(series, q)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d entry %d: reused engine %v, one-shot %v", trial, i, dst[i], want[i])
			}
		}
	}
}

func TestTopKNonOverlapping(t *testing.T) {
	// A sine embeds the query shape many times; top-3 must not overlap.
	n := 400
	series := make([]float64, n)
	for i := range series {
		series[i] = math.Sin(2 * math.Pi * float64(i) / 50)
	}
	q := series[100:150]
	matches := profile.TopK(series, q, 3)
	if len(matches) != 3 {
		t.Fatalf("matches = %d, want 3", len(matches))
	}
	if matches[0].Distance > 1e-6 {
		t.Fatalf("best match distance = %g", matches[0].Distance)
	}
	for i := 0; i < len(matches); i++ {
		for j := i + 1; j < len(matches); j++ {
			gap := matches[i].Offset - matches[j].Offset
			if gap < 0 {
				gap = -gap
			}
			if gap <= 25 {
				t.Fatalf("matches %d and %d overlap: offsets %d, %d",
					i, j, matches[i].Offset, matches[j].Offset)
			}
		}
	}
	// Sorted ascending by distance.
	for i := 1; i < len(matches); i++ {
		if matches[i].Distance < matches[i-1].Distance {
			t.Fatal("matches not sorted")
		}
	}
}

// TestTopKCeilingFiltered is the regression test for TopK reporting
// constant-window sqrt(2w) ceiling entries as matches: on a series with a
// long flat tail, asking for more matches than the varying head can
// provide used to pad the result with phantom hits from the tail.
func TestTopKCeilingFiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const head, tail, w = 60, 60, 10
	series := make([]float64, head+tail)
	for i := 0; i < head; i++ {
		series[i] = rng.NormFloat64()
	}
	for i := head; i < head+tail; i++ {
		series[i] = 2.5 // flat tail
	}
	q := append([]float64(nil), series[10:10+w]...)
	matches := profile.TopK(series, q, 30)
	if len(matches) == 0 {
		t.Fatal("no matches at all")
	}
	if len(matches) >= 30 {
		t.Errorf("TopK returned %d matches; the flat tail cannot supply that many genuine hits",
			len(matches))
	}
	for _, m := range matches {
		flat := true
		for _, v := range series[m.Offset : m.Offset+w] {
			if v != series[m.Offset] {
				flat = false
				break
			}
		}
		if flat {
			t.Errorf("match at offset %d (distance %v) is a constant window", m.Offset, m.Distance)
		}
	}
}

// TestTopKConstantQuery: a zero-variance query has no genuine matches at
// all — every profile entry is the ceiling — so TopK returns nothing.
func TestTopKConstantQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	series := make([]float64, 50)
	for i := range series {
		series[i] = rng.NormFloat64()
	}
	q := []float64{3, 3, 3, 3, 3}
	if matches := profile.TopK(series, q, 5); len(matches) != 0 {
		t.Errorf("constant query returned %d matches, want 0", len(matches))
	}
}

func TestMatrixProfileFindsPlantedMotif(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 300
	series := make([]float64, n)
	for i := range series {
		series[i] = rng.NormFloat64()
	}
	// Plant the same pattern at offsets 50 and 200.
	pattern := make([]float64, 30)
	for i := range pattern {
		pattern[i] = 2 * math.Sin(2*math.Pi*float64(i)/10)
	}
	copy(series[50:], pattern)
	copy(series[200:], pattern)
	i, j, dist := selfJoin(t, series, 30, profile.Options{}).Motif()
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo < 45 || lo > 55 || hi < 195 || hi > 205 {
		t.Fatalf("motif at (%d, %d), want near (50, 200)", i, j)
	}
	if dist > 0.5 {
		t.Fatalf("motif distance = %g, want near 0", dist)
	}
}

func TestDiscordFindsPlantedAnomaly(t *testing.T) {
	// A periodic signal with one corrupted cycle: the discord.
	n := 400
	series := make([]float64, n)
	for i := range series {
		series[i] = math.Sin(2 * math.Pi * float64(i) / 40)
	}
	for i := 190; i < 210; i++ {
		series[i] += 3 * math.Cos(float64(i)) // structured corruption
	}
	offset, dist := selfJoin(t, series, 40, profile.Options{}).Discord()
	if offset < 160 || offset > 215 {
		t.Fatalf("discord at %d, want inside the corrupted region", offset)
	}
	if dist <= 0 {
		t.Fatalf("discord distance = %g", dist)
	}
}

// TestDiscordAllInfSentinel is the regression test for the Discord
// initialization bug: with w=10 over 14 points there are 5 windows and an
// exclusion radius of 5, so every window's zone covers the whole profile
// and all entries are +Inf. The old code initialized best=0 and only
// skipped +Inf inside the loop, returning offset 0 with distance +Inf as
// if it were a real anomaly; the fix returns the (-1, +Inf) sentinel.
func TestDiscordAllInfSentinel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	series := make([]float64, 14)
	for i := range series {
		series[i] = rng.NormFloat64()
	}
	res := selfJoin(t, series, 10, profile.Options{})
	for i := range res.Values {
		if !math.IsInf(res.Values[i], 1) || res.Indices[i] != -1 {
			t.Fatalf("row %d: %v/%d, want +Inf/-1 (zone covers all windows)", i, res.Values[i], res.Indices[i])
		}
	}
	offset, dist := res.Discord()
	if offset != -1 {
		t.Errorf("Discord offset = %d, want -1 sentinel", offset)
	}
	if !math.IsInf(dist, 1) {
		t.Errorf("Discord dist = %v, want +Inf", dist)
	}
	i, j, mdist := res.Motif()
	if i != -1 || j != -1 || !math.IsInf(mdist, 1) {
		t.Errorf("Motif = (%d, %d, %v), want (-1, -1, +Inf)", i, j, mdist)
	}
}

func TestMatrixProfileExclusionZone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	series := make([]float64, 120)
	for i := range series {
		series[i] = rng.NormFloat64()
	}
	res := selfJoin(t, series, 20, profile.Options{})
	for i, j := range res.Indices {
		if j == -1 {
			continue
		}
		gap := j - i
		if gap < 0 {
			gap = -gap
		}
		if gap <= 10 {
			t.Fatalf("profile %d points to trivial neighbor %d", i, j)
		}
	}
}

func TestMatrixProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	profile.SelfJoin(context.Background(), make([]float64, 10), 11, profile.Options{})
}

// TestSTAMPSettingMatchesEngine cross-checks the two formulations: STAMP
// (one-row blocks on one worker, every row one FFT scan) and the default
// STOMP streaming blocks agree to FFT tolerance, and each engine neighbor
// lies outside the exclusion zone.
func TestSTAMPSettingMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	series := make([]float64, 200)
	v := 0.0
	for i := range series {
		v += rng.NormFloat64() * 0.5
		series[i] = v
	}
	for _, w := range []int{8, 9} {
		stamp := selfJoin(t, series, w, profile.Options{BlockRows: 1, Workers: 1})
		eng := selfJoin(t, series, w, profile.Options{})
		if len(stamp.Values) != len(eng.Values) {
			t.Fatalf("w=%d: length mismatch %d vs %d", w, len(stamp.Values), len(eng.Values))
		}
		excl := w / 2
		for i := range stamp.Values {
			if !approx(stamp.Values[i], eng.Values[i]) {
				t.Errorf("w=%d row %d: STAMP %v engine %v", w, i, stamp.Values[i], eng.Values[i])
			}
			if j := eng.Indices[i]; j >= 0 && j >= i-excl && j <= i+excl {
				t.Errorf("w=%d row %d: engine neighbor %d inside zone", w, i, j)
			}
		}
	}
}

// TestABProfileSelfMatch: AB-joining a series with itself has no
// exclusion zone, so every window matches itself at (near) zero.
func TestABProfileSelfMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	series := make([]float64, 80)
	v := 0.0
	for i := range series {
		v += rng.NormFloat64()
		series[i] = v
	}
	res, err := profile.ABJoin(context.Background(), series, series, 8, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Values {
		// FFT rounding through sqrt(2w(1-corr)) leaves ~1e-5 residue on
		// exact self-matches.
		if d > 1e-4 {
			t.Errorf("row %d: self AB distance %v, want ~0", i, d)
		}
	}
}
