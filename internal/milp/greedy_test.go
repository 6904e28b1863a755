package milp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// greedyOrder is the sort.Interface the greedy rounding once sorted its
// candidates with: the reference its slices.SortFunc order is held to.
type greedyOrder struct {
	cands []greedyCand
	obj   []float64
}

func (o *greedyOrder) Len() int      { return len(o.cands) }
func (o *greedyOrder) Swap(i, j int) { o.cands[i], o.cands[j] = o.cands[j], o.cands[i] }
func (o *greedyOrder) Less(i, j int) bool {
	a, b := o.cands[i], o.cands[j]
	if math.Abs(a.val-b.val) > 1e-12 {
		return a.val > b.val
	}
	return o.obj[a.v] > o.obj[b.v]
}

// sort.Sort and slices.SortFunc are generated from one pdqsort template, so
// with a comparator that is negative exactly when Less is true they make the
// same comparisons and the same swaps: the permutation is the same, ties and
// the 1e-12 window's intransitive near-ties included.
func TestGreedySortMatchesSortSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(200)
		obj := make([]float64, n)
		for v := range obj {
			obj[v] = float64(rng.Intn(4)-1) + float64(rng.Intn(3))*4e-13
		}
		cands := make([]greedyCand, n)
		for i, v := range rng.Perm(n) {
			// A few base values, each shifted by multiples of 4e-13: pairs
			// within 1e-12 of each other tie, chains of them do not.
			val := []float64{0, 0.25, 0.5, 1}[rng.Intn(4)] + float64(rng.Intn(7)-3)*4e-13
			cands[i] = greedyCand{v, val, obj[v]}
		}
		want := slices.Clone(cands)
		sort.Sort(&greedyOrder{want, obj})
		slices.SortFunc(cands, greedyCmp)
		for i := range want {
			if cands[i] != want[i] {
				t.Fatalf("trial %d (n=%d): position %d holds %+v, sort.Sort put %+v there", trial, n, i, cands[i], want[i])
			}
		}
	}
}

// The rounding's final check reads the row activities it kept while
// switching variables on, and sums a row again only near its limit. Its
// verdict must be Model.Feasible's on any 0/1 vector, including rows whose
// row-order sum sits exactly on rhs+feasTol or one ulp to either side of it,
// where a sum taken in another order can land on the other side.
func TestGreedyFeasibleMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	coef := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return float64(1 + rng.Intn(4))
		case 1:
			return -rng.Float64()
		default:
			return rng.Float64() * 3
		}
	}
	onLimit := 0
	for trial := 0; trial < 3000; trial++ {
		n, rows := 1+rng.Intn(30), 1+rng.Intn(12)
		var m Model
		for v := 0; v < n; v++ {
			m.AddVar(Binary, 1, "")
		}
		x := make([]float64, n)
		for v := range x {
			x[v] = float64(rng.Intn(2))
		}
		for r := 0; r < rows; r++ {
			var idx []int
			var cs []float64
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					idx = append(idx, v)
					cs = append(cs, coef())
				}
			}
			lhs := 0.0 // as Feasible sums it
			for k, v := range idx {
				lhs += cs[k] * x[v]
			}
			var rhs float64
			switch rng.Intn(4) {
			case 0:
				rhs = lhs + rng.NormFloat64()
			default:
				// rhs+feasTol lands exactly on lhs, or an ulp away.
				rhs = lhs - feasTol
				for k := 0; k < 8 && rhs+feasTol != lhs; k++ {
					if rhs+feasTol < lhs {
						rhs = math.Nextafter(rhs, math.Inf(1))
					} else {
						rhs = math.Nextafter(rhs, math.Inf(-1))
					}
				}
				if rhs+feasTol == lhs {
					onLimit++
				}
				switch rng.Intn(3) {
				case 1:
					rhs = math.Nextafter(rhs, math.Inf(1))
				case 2:
					rhs = math.Nextafter(rhs, math.Inf(-1))
				}
			}
			m.AddLE("", idx, cs, rhs)
		}
		var g greedyCtx
		g.reset(&m)
		g.clearOut()
		for _, v := range rng.Perm(n) { // any switch-on order
			if x[v] == 1 {
				g.switchOn(v)
			}
		}
		if got, want := g.feasible(&m), m.Feasible(x, feasTol); got != want {
			t.Fatalf("trial %d: activity verdict %v, Model.Feasible %v", trial, got, want)
		}
	}
	if onLimit < 1000 {
		t.Errorf("only %d rows sat exactly on rhs+feasTol", onLimit)
	}
}

// roundFullSort is greedy rounding with every free binary in the sorted
// list, the way round sorted them before it learned to leave out those
// below the cut: the reference round is held to.
func (g *greedyCtx) roundFullSort(m *Model, x []float64, fixed []int8) ([]float64, bool) {
	if !g.allBinary {
		return nil, false
	}
	g.clearOut()
	for v, val := range fixed {
		if val == 1 && !g.apply(m, v) {
			return nil, false
		}
	}
	cands := g.cands[:0]
	for v, val := range fixed {
		if val < 0 {
			cands = append(cands, greedyCand{v, x[v], m.obj[v]})
		}
	}
	g.cands = cands
	slices.SortFunc(cands, greedyCmp)
	for _, cd := range cands {
		if m.obj[cd.v] < 0 && cd.val >= 0.5 {
			g.apply(m, cd.v)
		}
	}
	for _, cd := range cands {
		if cd.val < 1e-9 {
			break
		}
		if m.obj[cd.v] <= 0 {
			continue
		}
		g.apply(m, cd.v)
	}
	if !g.feasible(m) {
		return nil, false
	}
	return g.out, true
}

// roundModel draws an all-binary model of n variables: objectives from
// TestGreedySortMatchesSortSort's tie-heavy set (negative ones are relaxing
// variables with negative coefficients), at-most-one and capacity rows, and
// a fixing that leaves most variables free.
func roundModel(rng *rand.Rand, n int) (*Model, []int8) {
	var m Model
	for v := 0; v < n; v++ {
		m.AddVar(Binary, float64(rng.Intn(4)-1)+float64(rng.Intn(3))*4e-13, "")
	}
	for r := 1 + rng.Intn(8); r > 0; r-- {
		var idx []int
		var cs []float64
		oneRow := rng.Intn(2) == 0
		for v := 0; v < n; v++ {
			if rng.Intn(3) != 0 {
				continue
			}
			c := 1.0
			switch {
			case m.obj[v] < 0:
				c = -1 - 2*rng.Float64()
			case !oneRow:
				c = 0.5 + 3*rng.Float64()
			}
			idx, cs = append(idx, v), append(cs, c)
		}
		rhs := 1.0
		if !oneRow {
			rhs = 1 + 6*rng.Float64()
		}
		m.AddLE("", idx, cs, rhs)
	}
	fixed := make([]int8, n)
	for v := range fixed {
		switch rng.Intn(10) {
		case 0:
			fixed[v] = 0
		case 1:
			fixed[v] = 1
		default:
			fixed[v] = -1
		}
	}
	return &m, fixed
}

// checkRound fails t unless round and roundFullSort agree on (m, x, fixed):
// the same verdict and, when it is ok, the same bits. When the short list
// was used it must also be the full sort's prefix of values ≥ 1e-9. It
// reports whether the short list was used.
func checkRound(t testing.TB, m *Model, x []float64, fixed []int8) bool {
	t.Helper()
	var got, want greedyCtx
	got.reset(m)
	want.reset(m)
	gx, gok := got.round(m, x, fixed)
	wx, wok := want.roundFullSort(m, x, fixed)
	if gok != wok {
		t.Fatalf("round ok=%v, full sort ok=%v (x=%v fixed=%v)", gok, wok, x, fixed)
	}
	for v := range wx {
		if math.Float64bits(gx[v]) != math.Float64bits(wx[v]) {
			t.Fatalf("round sets x[%d]=%g, full sort %g (x=%v fixed=%v)", v, gx[v], wx[v], x, fixed)
		}
	}
	short := got.shortList(m, x, fixed)
	if short == nil {
		return false
	}
	full := want.fullList(m, x, fixed)
	for i, cd := range short {
		if cd != full[i] {
			t.Fatalf("short list position %d holds %+v, full sort %+v (x=%v fixed=%v)", i, cd, full[i], x, fixed)
		}
	}
	if len(full) > len(short) && !(full[len(short)].val < 1e-9) {
		t.Fatalf("full sort continues with %+v past the short list's %d candidates", full[len(short)], len(short))
	}
	return true
}

// nearCut is a value within 1e-12 of greedy rounding's 1e-9 cut, or a few
// ulps either side of that window's edges.
func nearCut(rng *rand.Rand) float64 {
	if rng.Intn(4) != 0 {
		return 1e-9 + float64(rng.Intn(7)-3)*4e-13
	}
	c, dir := 1e-9+float64(rng.Intn(3)-1)*1e-12, math.Inf(1)
	if rng.Intn(2) == 0 {
		dir = math.Inf(-1)
	}
	for k := rng.Intn(3); k > 0; k-- {
		c = math.Nextafter(c, dir)
	}
	return c
}

// Greedy rounding sorts only the free binaries it can switch on (LP value
// ≥ 1e-9) and falls back to sorting them all when the short list's order
// could depend on the rest. Its verdict and output must be the full sort's
// on tie-heavy LP points — TestGreedySortMatchesSortSort's ties and near-ties
// — and on points with values within 1e-12 of the cut, ±4e-13 noise around
// 0, and NaN.
func TestGreedyRoundMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shortUsed, trials := 0, 20000
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(60)
		m, fixed := roundModel(rng, n)
		tieHeavy := rng.Intn(2) == 0
		pNear, pNaN := []float64{0, 0.03}[rng.Intn(2)], []float64{0, 0.01}[rng.Intn(2)]
		x := make([]float64, n)
		for v := range x {
			switch p := rng.Float64(); {
			case p < pNaN:
				x[v] = math.NaN()
			case p < pNaN+pNear:
				x[v] = nearCut(rng)
			case tieHeavy:
				x[v] = []float64{0, 0.25, 0.5, 1}[rng.Intn(4)] + float64(rng.Intn(7)-3)*4e-13
			case rng.Intn(6) == 0:
				x[v] = rng.Float64()
			default:
				x[v] = float64(rng.Intn(3)-1) * 4e-13
			}
		}
		if checkRound(t, m, x, fixed) {
			shortUsed++
		}
	}
	if shortUsed < trials/10 || shortUsed > trials*9/10 {
		t.Errorf("short list used in %d of %d trials: one path is barely exercised", shortUsed, trials)
	}
}

// FuzzGreedyRound is TestGreedyRoundMatchesFullSort's property on fuzzed
// input: seed draws the model and its fixing, and each byte of vals picks
// the next variable's LP value — a tie-heavy, near-cut or NaN value from a
// palette or, with its high bit set, the float64 in the 8 bytes after it.
func FuzzGreedyRound(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(int64(2), []byte{7, 7, 7, 8, 8, 9, 9, 10, 0, 0, 1, 2})
	f.Add(int64(3), []byte{11, 11, 12, 11, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	palette := []float64{
		0, 4e-13, -4e-13, 1e-9, 1e-9 - 1e-12, 1e-9 + 1e-12, 1e-9 + 4e-13, 2e-9,
		0.25, 0.25 + 4e-13, 0.5, 0.5 - 4e-13, 1, 1 - 8e-13, math.NaN(), 0.75,
	}
	f.Fuzz(func(t *testing.T, seed int64, vals []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(48)
		m, fixed := roundModel(rng, n)
		x := make([]float64, n)
		for v := range x {
			if len(vals) == 0 {
				break
			}
			b := vals[0]
			vals = vals[1:]
			if b&0x80 != 0 && len(vals) >= 8 {
				x[v] = math.Float64frombits(binary.LittleEndian.Uint64(vals))
				vals = vals[8:]
				continue
			}
			x[v] = palette[int(b)%len(palette)]
		}
		checkRound(t, m, x, fixed)
	})
}

// BenchmarkGreedyRound is one greedy rounding of a scheduler-shaped model's
// root LP point: 85 option binaries plus preemption credits, most of them at
// 0 in the relaxation, as in the scheduler's models.
func BenchmarkGreedyRound(b *testing.B) {
	m := preemptShaped(rand.New(rand.NewSource(12)), 17, 5, 21, 5, false)
	fixed := freeFixing(m.NumVars())
	root, _, err := solveRelaxation(m, fixed)
	if err != nil {
		b.Fatal(err)
	}
	var g greedyCtx
	g.reset(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.round(m, root.x, fixed)
	}
}
