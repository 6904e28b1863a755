package milp

import (
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
