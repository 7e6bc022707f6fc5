package elastic

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/measure"
)

// TestMinDTWMatchesChain checks MinDTW against the comparison chain it
// replaces on every ordered triple of DTW cell values: +0, the smallest
// subnormal, 1, the largest finite value, +Inf, and three NaNs (the
// default one, one with the sign bit set, one with a payload). The chain
// only selects, so the two must agree on every bit, NaN payloads included.
func TestMinDTWMatchesChain(t *testing.T) {
	vals := []float64{
		0, 5e-324, 1, math.MaxFloat64, math.Inf(1), math.NaN(),
		math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff8000000000bad),
	}
	for _, d := range vals {
		for _, u := range vals {
			for _, l := range vals {
				chain := d
				if u < chain {
					chain = u
				}
				if l < chain {
					chain = l
				}
				if got := MinDTW(d, u, l); math.Float64bits(got) != math.Float64bits(chain) {
					t.Errorf("MinDTW(%x, %x, %x) = %x, chain %x", math.Float64bits(d), math.Float64bits(u),
						math.Float64bits(l), math.Float64bits(got), math.Float64bits(chain))
				}
			}
		}
	}
}

// dpRoutes is one elastic measure seen through each route of the DP
// driver: full is the serial DP at a NaN cutoff, which prunes nothing, and
// wave the blocked wavefront, both through the measure's final step from
// DP value to distance.
type dpRoutes struct {
	m          measure.Measure
	full, wave func(x, y []float64) float64
}

func routesOf[K Recurrence](m measure.Measure, dp func(x, y []float64) DP[K], finish func(v float64, n int) float64) dpRoutes {
	return dpRoutes{
		m:    m,
		full: func(x, y []float64) float64 { return finish(dp(x, y).Serial(math.NaN()), len(x)) },
		wave: func(x, y []float64) float64 { return finish(dp(x, y).Wavefront(), len(x)) },
	}
}

// elasticRoutes returns every row function of the package behind its
// measure, DTW and LCSS banded at delta percent. WDTW runs twice: its
// default weights and a negative WMax, the reason it keeps its comparison
// chain.
func elasticRoutes(delta int) []dpRoutes {
	same := func(v float64, _ int) float64 { return v }
	dtw, lcss := DTW{DeltaPercent: delta}, LCSS{DeltaPercent: delta, Epsilon: 0.2}
	edr, erp, msm, twe := EDR{Epsilon: 0.1}, ERP{G: 0}, MSM{C: 0.5}, TWE{Lambda: 1, Nu: 0.0001}
	swale, wdtw, wdtwNeg := Swale{Epsilon: 0.2, P: 5, R: 1}, WDTW{G: 0.05}, WDTW{G: 0.05, WMax: -1}
	return []dpRoutes{
		routesOf(dtw, dtw.dp, same),
		routesOf(lcss, lcss.dp, func(v float64, n int) float64 {
			if n == 0 {
				return 0
			}
			return 1 - v/float64(n)
		}),
		routesOf(edr, edr.dp, same),
		routesOf(erp, erp.dp, same),
		routesOf(msm, msm.dp, same),
		routesOf(twe, twe.dp, same),
		routesOf(swale, swale.dp, func(v float64, _ int) float64 { return -v }),
		routesOf(wdtw, wdtw.dp, same),
		routesOf(wdtwNeg, wdtwNeg.dp, same),
	}
}

// dtwChain is banded DTW written plainly: the whole (n+1)-by-(n+1) matrix,
// out-of-band cells left at +Inf, and the minimum taken by the comparison
// chain that MinDTW replaces.
func dtwChain(x, y []float64, w int) float64 {
	n := len(x)
	d := make([][]float64, n+1)
	for i := range d {
		d[i] = make([]float64, n+1)
		fill(d[i], math.Inf(1))
	}
	d[0][0] = 0
	for i := 1; i <= n; i++ {
		for j := max(1, i-w); j <= min(n, i+w); j++ {
			c := x[i-1] - y[j-1]
			best := d[i-1][j-1]
			if d[i-1][j] < best {
				best = d[i-1][j]
			}
			if d[i][j-1] < best {
				best = d[i][j-1]
			}
			d[i][j] = c*c + best
		}
	}
	return d[n][n]
}

// sameValue is bitwise equality with every NaN equal to every other. Go
// treats a float addition as commutative and may swap its operands, and
// amd64 keeps the first operand's payload when both are NaN, so two
// compilations of the same sum can differ in a NaN's payload; no caller
// reads one (measure.Sanitize maps every NaN to +Inf).
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// fuzzMaxLen caps the fuzzed series length: 40 points make a 4-cell
// wavefront block grid of 10 by 10.
const fuzzMaxLen = 40

// fuzzSeries reads two equal-length series from raw, each 16 bytes one
// little-endian float64 bit pattern of x and then one of y.
func fuzzSeries(raw []byte) (x, y []float64) {
	n := min(len(raw)/16, fuzzMaxLen)
	x, y = make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
		y[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
	}
	return x, y
}

// fuzzBytes is fuzzSeries' inverse, for the seed corpus.
func fuzzBytes(x, y []float64) []byte {
	raw := make([]byte, 0, 16*len(x))
	for i := range x {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(x[i]))
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(y[i]))
	}
	return raw
}

// FuzzElasticDP fuzzes the bit patterns of two equal-length series, a
// band and a cutoff through every row function, with 4-cell wavefront
// blocks so that short series cross many block edges:
//   - the serial DP at a NaN cutoff (DistanceUpTo's where the measure has
//     one) and the wavefront agree bitwise: both run the same row function
//     over the same cells;
//   - Distance agrees with both after measure.Sanitize: at a +Inf cutoff
//     the serial DP skips cells whose predecessors are all +Inf, where a
//     NaN cost can turn the full DP NaN;
//   - DistanceUpTo at the fuzzed cutoff keeps the EarlyAbandoning contract
//     against the full DP: bitwise below the cutoff, within [cutoff, full]
//     otherwise (a NaN full DP is skipped, as the oracle does);
//   - DTW's full DP equals dtwChain's, NaN payloads aside (see sameValue).
func FuzzElasticDP(f *testing.F) {
	nan := math.NaN()
	negNaN := math.Float64frombits(0xfff8000000000000)
	payNaN := math.Float64frombits(0x7ff0000000000bad)
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	walk := func(n int, step float64) []float64 {
		s := make([]float64, n)
		for i := 1; i < n; i++ {
			s[i] = s[i-1] + step*math.Sin(float64(i*i))
		}
		return s
	}
	x, y := walk(24, 0.7), walk(24, -0.4)
	f.Add(fuzzBytes(x, y), uint8(10), math.Float64bits(inf))
	f.Add(fuzzBytes(x, y), uint8(10), math.Float64bits(3))
	f.Add(fuzzBytes(x, x), uint8(100), math.Float64bits(0))
	f.Add(fuzzBytes(x, y), uint8(0), math.Float64bits(nan))
	f.Add(fuzzBytes(nil, nil), uint8(5), math.Float64bits(1))
	specials := []float64{nan, negNaN, payNaN, 0, negZero, inf, -inf, 5e-324, -5e-324, 2.2e-308, math.MaxFloat64, -math.MaxFloat64, 1, -1}
	sx, sy := append([]float64(nil), x[:len(specials)]...), append([]float64(nil), y[:len(specials)]...)
	for k, v := range specials {
		sx[k], sy[len(specials)-1-k] = v, v
	}
	f.Add(fuzzBytes(sx, sy), uint8(20), math.Float64bits(10))
	f.Add(fuzzBytes(sx, y[:len(specials)]), uint8(100), math.Float64bits(-inf))
	for _, v := range []float64{nan, negNaN, inf, -inf, negZero, 5e-324} {
		px, py := append([]float64(nil), x...), append([]float64(nil), y...)
		px[7], py[7] = v, v
		f.Add(fuzzBytes(px, py), uint8(10), math.Float64bits(50))
		f.Add(fuzzBytes(px, y), uint8(100), math.Float64bits(inf))
	}

	f.Fuzz(func(t *testing.T, raw []byte, delta uint8, cutoffBits uint64) {
		defer SetWavefrontBlock(4)()
		x, y := fuzzSeries(raw)
		cutoff := math.Float64frombits(cutoffBits)
		for _, r := range elasticRoutes(int(delta)) {
			name := r.m.Name()
			full, wave := r.full(x, y), r.wave(x, y)
			if math.Float64bits(full) != math.Float64bits(wave) {
				t.Errorf("%s: full DP %v (%#x) != wavefront %v (%#x)", name, full, math.Float64bits(full), wave, math.Float64bits(wave))
			}
			if d := r.m.Distance(x, y); math.Float64bits(measure.Sanitize(d)) != math.Float64bits(measure.Sanitize(full)) {
				t.Errorf("%s: Distance %v, full DP %v", name, d, full)
			}
			ea, ok := r.m.(measure.EarlyAbandoning)
			if !ok {
				continue
			}
			if v := ea.DistanceUpTo(x, y, math.NaN()); math.Float64bits(v) != math.Float64bits(full) {
				t.Errorf("%s: DistanceUpTo(NaN) %v (%#x), full DP %v (%#x)", name, v, math.Float64bits(v), full, math.Float64bits(full))
			}
			if math.IsNaN(full) {
				continue
			}
			v := ea.DistanceUpTo(x, y, cutoff)
			if full < cutoff && math.Float64bits(v) != math.Float64bits(full) {
				t.Errorf("%s: cutoff %v above the full DP %v, DistanceUpTo %v", name, cutoff, full, v)
			}
			if !(full < cutoff) && !math.IsNaN(cutoff) && !(cutoff <= v && v <= full) {
				t.Errorf("%s: cutoff %v, DistanceUpTo %v outside [cutoff, full DP %v]", name, cutoff, v, full)
			}
		}
		w := WindowSize(int(delta), len(x))
		dtw := DTW{DeltaPercent: int(delta)}
		if got, want := dtw.dp(x, y).Serial(math.NaN()), dtwChain(x, y, w); !sameValue(got, want) {
			t.Errorf("dtw[d=%d]: full DP %v (%#x), comparison chain %v (%#x)", delta, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
