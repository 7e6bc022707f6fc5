package lockstep

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/measure"
)

// panels returns the six panel-capable lock-step measures.
func panels() []Panel {
	return []Panel{Euclidean(), Manhattan(), Chebyshev(), Lorentzian(), SquaredEuclidean(), Cosine()}
}

// sameBits is bitwise equality with NaN == NaN (identical op sequences
// produce identical NaN payloads, but keep the check independent of that).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func randPanel(rng *rand.Rand, count, m int) ([]float64, [][]float64) {
	series := func() []float64 {
		s := make([]float64, m)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		return s
	}
	q := series()
	panel := make([][]float64, count)
	for k := range panel {
		panel[k] = series()
	}
	return q, panel
}

// TestPanelBitwiseScalar: PanelDistancesUpTo at a +Inf cutoff must match
// per-pair Distance bitwise across panel sizes that exercise the 4-lane groups and the tail,
// and lengths that exercise the stride loop and its remainder.
func TestPanelBitwiseScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, m := range []int{0, 1, 5, 15, 16, 17, 63, 64, 65, 129, 256} {
		for _, count := range []int{0, 1, 3, 4, 5, 9} {
			q, panel := randPanel(rng, count, m)
			for _, p := range panels() {
				out := make([]float64, count)
				if !p.PanelDistancesUpTo(q, panel, math.Inf(1), out) {
					t.Fatalf("%s m=%d count=%d: declined uniform panel", p.Name(), m, count)
				}
				for k := range panel {
					if want := p.Distance(q, panel[k]); !sameBits(out[k], want) {
						t.Fatalf("%s m=%d k=%d: panel %v != scalar %v", p.Name(), m, k, out[k], want)
					}
				}
			}
		}
	}
}

// TestPanelBitwiseNonFinite: the bitwise contract holds through NaN and
// Inf values too — the kernels run the same ops as the scalar loops, and
// DistanceUpTo at a +Inf cutoff abandons nothing, so it returns Distance
// even when a partial value overflows to +Inf before a later NaN.
// Lorentzian also stays within 1e-12 of its Log1p loop, NaN and Inf
// included.
func TestPanelBitwiseNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q, panel := randPanel(rng, 6, 80)
	q[3] = math.NaN()
	panel[1][0] = math.Inf(1)
	panel[4][79] = math.Inf(-1)
	panel[5][10] = math.NaN()
	// overflow pairs: q's first term alone reaches +Inf inside the first
	// 64-point stride, and the candidates' NaN sits just past it.
	overflow := func(q0 float64) ([]float64, [][]float64) {
		q := make([]float64, 65)
		q[0] = q0
		c := make([]float64, 65)
		c[64] = math.NaN()
		return q, [][]float64{c, c, c, c, c}
	}
	bigQ, nanPanel := overflow(1e200)
	infQ, _ := overflow(math.Inf(1))
	cases := []struct {
		name  string
		q     []float64
		panel [][]float64
	}{
		{"poisoned", q, panel},
		{"square-overflow", bigQ, nanPanel},
		{"inf-then-nan", infQ, nanPanel},
	}
	for _, tc := range cases {
		for _, p := range panels() {
			out := make([]float64, len(tc.panel))
			if !p.PanelDistancesUpTo(tc.q, tc.panel, math.Inf(1), out) {
				t.Fatalf("%s %s: declined", tc.name, p.Name())
			}
			for k, c := range tc.panel {
				want := p.Distance(tc.q, c)
				if !sameBits(out[k], want) {
					t.Fatalf("%s %s k=%d: panel %v != scalar %v", tc.name, p.Name(), k, out[k], want)
				}
				if u := p.DistanceUpTo(tc.q, c, math.Inf(1)); !sameBits(u, want) {
					t.Fatalf("%s %s k=%d: DistanceUpTo(+Inf) %v != Distance %v", tc.name, p.Name(), k, u, want)
				}
				if p.Name() == "lorentzian" {
					if ref := log1pLoop(tc.q, c); !closeRel(want, ref, 1e-12) {
						t.Fatalf("%s lorentzian k=%d: %v, Log1p loop %v", tc.name, k, want, ref)
					}
				}
			}
		}
	}
}

// TestPanelUpToContract checks PanelDistancesUpTo per candidate: exact
// below the cutoff, a certified bound in [cutoff, distance] at or above it.
func TestPanelUpToContract(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	q, panel := randPanel(rng, 9, 200)
	panel[2] = append([]float64(nil), q...) // zero-distance candidate
	for _, p := range panels() {
		exact := make([]float64, len(panel))
		for k := range panel {
			exact[k] = p.Distance(q, panel[k])
		}
		sorted := append([]float64(nil), exact...)
		sort.Float64s(sorted)
		for _, cutoff := range []float64{math.Inf(1), sorted[len(sorted)/2], sorted[0], 0} {
			out := make([]float64, len(panel))
			if !p.PanelDistancesUpTo(q, panel, cutoff, out) {
				t.Fatalf("%s: declined", p.Name())
			}
			for k := range panel {
				switch {
				case exact[k] < cutoff:
					if !sameBits(out[k], exact[k]) {
						t.Fatalf("%s cutoff=%v k=%d: below-cutoff value %v != exact %v",
							p.Name(), cutoff, k, out[k], exact[k])
					}
				default:
					if out[k] < cutoff || out[k] > exact[k] {
						t.Fatalf("%s cutoff=%v k=%d: %v outside [cutoff, %v]",
							p.Name(), cutoff, k, out[k], exact[k])
					}
				}
			}
		}
	}
}

// TestPanelDeclinesRagged: a candidate of a different length makes the
// panel call decline at any cutoff.
func TestPanelDeclinesRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q, panel := randPanel(rng, 5, 40)
	panel[3] = panel[3][:39]
	for _, p := range panels() {
		out := make([]float64, len(panel))
		for _, cutoff := range []float64{math.Inf(1), 1} {
			if p.PanelDistancesUpTo(q, panel, cutoff, out) {
				t.Fatalf("%s: accepted a ragged panel at cutoff %v", p.Name(), cutoff)
			}
		}
	}
}

// TestScalarUpToContract pins DistanceUpTo for the six panels, including
// the negative-distance corner (cosine of identical series rounds to
// -2^-52-ish, putting any cutoff in (d, 0] above the distance).
func TestScalarUpToContract(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	q, panel := randPanel(rng, 1, 300)
	y := panel[0]
	for _, p := range panels() {
		d := p.Distance(q, y)
		for _, cutoff := range []float64{math.Inf(1), d * 1.5, d, d / 2, 0} {
			v := p.DistanceUpTo(q, y, cutoff)
			if d < cutoff {
				if !sameBits(v, d) {
					t.Fatalf("%s cutoff=%v: %v != exact %v", p.Name(), cutoff, v, d)
				}
			} else if v < cutoff || v > d {
				t.Fatalf("%s cutoff=%v: %v outside [cutoff, %v]", p.Name(), cutoff, v, d)
			}
		}
		self := p.DistanceUpTo(q, q, 0.5)
		if want := p.Distance(q, q); want < 0.5 && !sameBits(self, want) {
			t.Fatalf("%s: self distance %v != %v", p.Name(), self, want)
		}
	}
}

// log1pLoop is Lorentzian term by term, the math.Log1p loop its block
// kernels replace.
func log1pLoop(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += math.Log1p(math.Abs(x[i] - y[i]))
	}
	return s
}

// closeRel reports whether a and b are the same bits or finite and within
// tol of each other, relative to the larger magnitude.
func closeRel(a, b, tol float64) bool {
	if sameBits(a, b) {
		return true
	}
	d := math.Abs(a - b)
	return !math.IsInf(d, 0) && d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestLorentzianBlocks checks the block kernel against log1pLoop at
// lengths around the block and stride boundaries. A pair whose every block
// falls back to Log1p (products below lorentzMin, or overflowing) must
// match it bitwise; any other pair within 1e-12 relative. A one-point
// block cannot overflow, so the 1e200 pair falls back entirely only where
// no block has a single point.
func TestLorentzianBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	lz := Lorentzian()
	gauss := func(m int, scale float64) []float64 {
		s := make([]float64, m)
		for i := range s {
			s[i] = scale * rng.NormFloat64()
		}
		return s
	}
	for _, m := range []int{1, 15, 16, 17, 63, 64, 65, 129, 256, 4096} {
		x := gauss(m, 1)
		near := make([]float64, m)
		alternating := make([]float64, m)
		for i := range x {
			near[i] = x[i] + 1e-9*rng.NormFloat64()
			alternating[i] = x[i] + rng.NormFloat64()
			if i/lorentzBlock%2 == 0 {
				alternating[i] = near[i]
			}
		}
		cases := []struct {
			name    string
			x, y    []float64
			bitwise bool
		}{
			{"near-duplicate", x, near, true},
			{"tiny", gauss(m, 1e-8), gauss(m, 1e-8), true},
			{"overflow", gauss(m, 1e200), gauss(m, 1e200), m%lorentzBlock != 1},
			{"gaussian", x, gauss(m, 1), false},
			{"alternating", x, alternating, false},
		}
		for _, c := range cases {
			got, want := lz.Distance(c.x, c.y), log1pLoop(c.x, c.y)
			if (c.bitwise && !sameBits(got, want)) || !closeRel(got, want, 1e-12) {
				t.Fatalf("m=%d %s: block kernel %v, Log1p loop %v", m, c.name, got, want)
			}
		}

		y := gauss(m, 1)
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			xb := append([]float64(nil), x...)
			xb[m/2] = bad
			if got, want := lz.Distance(xb, y), log1pLoop(xb, y); !sameBits(got, bad) || !sameBits(want, bad) {
				t.Fatalf("m=%d %v at %d: block kernel %v, Log1p loop %v", m, bad, m/2, got, want)
			}
		}

		// Cutoffs inside the second and third stride: DistanceUpTo returns
		// the running sum at the first stride end that reaches the cutoff
		// (the whole distance past the last full stride), inside [cutoff, d].
		if m < 2*panelStride {
			continue
		}
		d := lz.Distance(x, y)
		end := func(k int) float64 {
			if k*panelStride > m {
				return d
			}
			return lz.Distance(x[:k*panelStride], y[:k*panelStride])
		}
		for k := 2; k <= 3; k++ {
			cutoff := (end(k-1) + end(k)) / 2
			if v := lz.DistanceUpTo(x, y, cutoff); !sameBits(v, end(k)) || v < cutoff || v > d {
				t.Fatalf("m=%d cutoff=%v in stride %d: DistanceUpTo %v, want %v in [cutoff, %v]", m, cutoff, k, v, end(k), d)
			}
		}
	}
}

// upToHolds reports whether v, returned for cutoff by an UpTo call on a
// pair at distance d, keeps the EarlyAbandoning contract, NaN ranking as
// +Inf the way the search engines rank it.
func upToHolds(v, d, cutoff float64) bool {
	if d < cutoff {
		return sameBits(v, d)
	}
	v, d = measure.Sanitize(v), measure.Sanitize(d)
	return cutoff <= v && v <= d
}

// FuzzPanelKernels decodes its input into one query and five candidates of
// one length (little-endian float64s, at most 1024 points each) and checks
// the six panel measures: Distance, DistanceUpTo and PanelDistancesUpTo
// at +Inf agree bitwise, PanelDistancesUpTo keeps the EarlyAbandoning
// contract at the smallest candidate distance, and
// Lorentzian stays within 1e-12 relative of the Log1p loop.
func FuzzPanelKernels(f *testing.F) {
	const series, maxLen = 6, 1024
	encode := func(vals []float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e200, 1e-300}
	rng := rand.New(rand.NewSource(53))
	for _, m := range []int{1, 16, 17, 64, 65} {
		vals := make([]float64, series*m)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		f.Add(encode(vals))
		// One special value per series, at a position that moves with it.
		for k := 0; k < series; k++ {
			vals[k*m+(5*k)%m] = specials[k+1]
		}
		vals[0] = specials[0]
		f.Add(encode(vals))
		for i := range vals {
			vals[i] = specials[i%len(specials)]
		}
		f.Add(encode(vals))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := min(len(data)/(8*series), maxLen)
		vals := make([]float64, series*m)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		q := vals[:m]
		cands := make([][]float64, series-1)
		for k := range cands {
			cands[k] = vals[(k+1)*m : (k+2)*m]
		}
		exact := make([]float64, len(cands))
		out := make([]float64, len(cands))
		for _, p := range panels() {
			if !p.PanelDistancesUpTo(q, cands, math.Inf(1), out) {
				t.Fatalf("%s: declined a uniform panel", p.Name())
			}
			cutoff := math.Inf(1)
			for k, c := range cands {
				d := p.Distance(q, c)
				if u := p.DistanceUpTo(q, c, math.Inf(1)); !sameBits(u, d) || !sameBits(out[k], d) {
					t.Fatalf("%s k=%d: Distance %v, DistanceUpTo(+Inf) %v, PanelDistancesUpTo(+Inf) %v", p.Name(), k, d, u, out[k])
				}
				if p.Name() == "lorentzian" {
					if want := log1pLoop(q, c); !closeRel(d, want, 1e-12) {
						t.Fatalf("lorentzian k=%d: %v, Log1p loop %v", k, d, want)
					}
				}
				exact[k] = d
				if d < cutoff {
					cutoff = d
				}
			}
			if !p.PanelDistancesUpTo(q, cands, cutoff, out) {
				t.Fatalf("%s: UpTo declined a uniform panel", p.Name())
			}
			for k := range cands {
				if !upToHolds(out[k], exact[k], cutoff) {
					t.Fatalf("%s k=%d cutoff=%v: PanelDistancesUpTo %v, distance %v", p.Name(), k, cutoff, out[k], exact[k])
				}
			}
		}
	})
}

func BenchmarkHotloopsPanelPerPair(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	q, panel := randPanel(rng, 128, 256)
	for _, p := range []Panel{Euclidean(), Lorentzian()} {
		b.Run(p.Name(), func(b *testing.B) {
			out := make([]float64, len(panel))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k := range panel {
					out[k] = p.Distance(q, panel[k])
				}
			}
		})
	}
}

func BenchmarkHotloopsPanelBatched(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	q, panel := randPanel(rng, 128, 256)
	for _, p := range []Panel{Euclidean(), Lorentzian()} {
		b.Run(p.Name(), func(b *testing.B) {
			out := make([]float64, len(panel))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !p.PanelDistancesUpTo(q, panel, math.Inf(1), out) {
					b.Fatal("declined")
				}
			}
		})
	}
}

func BenchmarkHotloopsPanelAbandon(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	q, panel := randPanel(rng, 128, 256)
	eu := Euclidean()
	// A tight cutoff: the 1-NN distance of the panel, so most candidates
	// abandon at the first stride check.
	cutoff := math.Inf(1)
	for k := range panel {
		if d := eu.Distance(q, panel[k]); d < cutoff {
			cutoff = d
		}
	}
	cutoff *= 1.01
	out := make([]float64, len(panel))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eu.PanelDistancesUpTo(q, panel, cutoff, out) {
			b.Fatal("declined")
		}
	}
}
