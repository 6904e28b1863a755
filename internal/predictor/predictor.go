// Package predictor implements 3σPredict (§4.1 of the paper): a black-box,
// feature-based runtime-distribution predictor. Each job is associated with
// several features (user, job name, resources requested, combinations, ...);
// for every observed feature value the predictor maintains a constant-memory
// sketch of historical runtimes (a streaming histogram plus streaming point
// estimators). Every (feature-value, estimator) pair is an "expert" scored
// by the normalized mean absolute error (NMAE) of its past point estimates;
// the runtime distribution handed to the scheduler is the histogram of the
// expert with the lowest NMAE.
//
// The same expert machinery doubles as the JVuPredict-style point predictor
// used by the PointRealEst baseline and the Fig. 2(d) estimate-error
// analysis: the best expert's point estimate is returned alongside the
// distribution.
package predictor

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"threesigma/internal/dist"
	"threesigma/internal/histogram"
	"threesigma/internal/job"
	"threesigma/internal/stats"
)

// EstimatorKind enumerates the four point-estimation techniques of §4.1.
type EstimatorKind uint8

const (
	// EstAverage is the streaming mean of all observed runtimes.
	EstAverage EstimatorKind = iota
	// EstMedian is the median of the recent window (the paper computes
	// "the median using recent values as a proxy for the actual median").
	EstMedian
	// EstRolling is an exponentially weighted moving average with α = 0.6.
	EstRolling
	// EstRecentAvg is the average of the most recent K runtimes.
	EstRecentAvg

	numEstimators = 4
)

// String names the estimator.
func (e EstimatorKind) String() string {
	switch e {
	case EstAverage:
		return "average"
	case EstMedian:
		return "median"
	case EstRolling:
		return "rolling"
	case EstRecentAvg:
		return "recent-avg"
	}
	return "unknown"
}

// feature extracts one categorical attribute (or attribute combination)
// from a job.
type feature struct {
	Name    string
	Extract func(*job.Job) string
}

// tasksBucket groups the resources-requested attribute by power of two, so
// jobs asking for similar node counts share history.
func tasksBucket(k int) string {
	b := 1
	for b < k {
		b <<= 1
	}
	return fmt.Sprintf("<=%d", b)
}

// features is the feature set: user, job name, their combination,
// resources requested, user×resources, priority, and a catch-all (the
// fallback when a job matches no history).
var features = []feature{
	{"user", func(j *job.Job) string { return j.User }},
	{"name", func(j *job.Job) string { return j.Name }},
	{"user+name", func(j *job.Job) string { return j.User + "/" + j.Name }},
	{"resources", func(j *job.Job) string { return tasksBucket(j.Tasks) }},
	{"user+resources", func(j *job.Job) string { return j.User + "/" + tasksBucket(j.Tasks) }},
	{"priority", func(j *job.Job) string { return fmt.Sprintf("p%d", j.Priority) }},
	{"all", func(j *job.Job) string { return "*" }},
}

// The estimator constants of §4.1. The paper's evaluation never varies
// them, so neither can a Config.
const (
	maxBins = histogram.DefaultMaxBins // histogram bin budget ("a maximum of 80 bins")
	alpha   = 0.6                      // rolling-estimate EWMA weight
	recentK = 20                       // recent-window length

	// defaultRuntime is the point estimate returned for jobs with no
	// usable history at all, in seconds.
	defaultRuntime = 300
)

// Config is empty: 3σPredict has nothing to tune. It is kept, with New's
// parameter, because bench/ passes it.
type Config struct{}

// group is the constant-memory sketch of one feature value's history.
type group struct {
	hist    *histogram.Histogram
	count   int
	sum     float64
	rolling float64
	recent  []float64 // ring buffer
	rPos    int
	rLen    int
	sorted  []float64 // the ring's values in ascending order, for EstMedian
	nmae    [numEstimators]*stats.NMAE
}

func newGroup() *group {
	g := &group{
		hist:   histogram.New(maxBins),
		recent: make([]float64, recentK),
		sorted: make([]float64, 0, recentK),
	}
	for i := range g.nmae {
		g.nmae[i] = new(stats.NMAE)
	}
	return g
}

// estimate returns the point estimate of one estimator kind from the
// current sketch state (NaN when the group is empty).
func (g *group) estimate(kind EstimatorKind) float64 {
	if g.count == 0 {
		return math.NaN()
	}
	switch kind {
	case EstAverage:
		return g.sum / float64(g.count)
	case EstMedian:
		return stats.SortedMedian(g.sorted)
	case EstRolling:
		return g.rolling
	case EstRecentAvg:
		return stats.Mean(g.recentValues())
	}
	return math.NaN()
}

func (g *group) recentValues() []float64 {
	return g.recent[:g.rLen]
}

// push adds runtime to the recent window, evicting the oldest value once
// the ring is full, and keeps the sorted companion in step: the evicted
// value is deleted and the new one inserted in place, O(recentK) moves
// instead of a sort per estimate.
func (g *group) push(runtime float64) {
	if g.rLen < len(g.recent) {
		g.recent[g.rLen] = runtime
		g.rLen++
	} else {
		old := g.recent[g.rPos]
		i := sort.SearchFloat64s(g.sorted, old)
		g.sorted = slices.Delete(g.sorted, i, i+1)
		g.recent[g.rPos] = runtime
		g.rPos = (g.rPos + 1) % len(g.recent)
	}
	i := sort.SearchFloat64s(g.sorted, runtime)
	g.sorted = slices.Insert(g.sorted, i, runtime)
}

// resort rebuilds the sorted companion from the ring (after a load).
func (g *group) resort() {
	g.sorted = append(g.sorted[:0], g.recentValues()...)
	sort.Float64s(g.sorted)
}

// observe scores all estimators against the new runtime and then folds the
// runtime into the sketch.
func (g *group) observe(runtime float64) {
	if g.count > 0 {
		for k := 0; k < numEstimators; k++ {
			if est := g.estimate(EstimatorKind(k)); !math.IsNaN(est) {
				g.nmae[k].Observe(est, runtime)
			}
		}
	}
	g.count++
	g.sum += runtime
	if g.count == 1 {
		g.rolling = runtime
	} else {
		g.rolling = alpha*runtime + (1-alpha)*g.rolling
	}
	g.push(runtime)
	g.hist.Add(runtime)
}

// Estimate is the predictor's answer for one job.
type Estimate struct {
	// Dist is the runtime distribution for 3σSched (a snapshot: later
	// observations do not mutate it).
	Dist dist.Distribution
	// Point is the best expert's point estimate (the JVuPredict-style
	// value used by PointRealEst and the error analyses).
	Point float64
	// Expert identifies the winning feature-value:estimator pair.
	Expert string
	// Samples is the number of historical runtimes behind Dist.
	Samples int
	// Novel marks a job with no usable history (defaults were returned).
	Novel bool
}

// Predictor is a 3σPredict instance. It is safe for concurrent use.
type Predictor struct {
	mu     sync.Mutex
	groups []map[string]*group // guarded by mu; one map per feature
}

// New returns an empty predictor.
func New(Config) *Predictor {
	groups := make([]map[string]*group, len(features))
	for i := range groups {
		groups[i] = make(map[string]*group)
	}
	return &Predictor{groups: groups}
}

// Estimate produces the runtime distribution and point estimate for a job
// (step 2 of Fig. 4). Expert selection picks the (feature-value, estimator)
// pair with the lowest NMAE among the groups this job belongs to; ties are
// broken toward the earlier feature and estimator for determinism.
func (p *Predictor) Estimate(j *job.Job) Estimate {
	p.mu.Lock()
	defer p.mu.Unlock()

	bestScore := math.Inf(1)
	var bestGroup *group
	bestName := ""
	var bestKind EstimatorKind
	// Fallback: the group with the most observations (used when no expert
	// has a scored NMAE yet).
	var fbGroup *group
	fbName := ""
	for fi, f := range features {
		g, ok := p.groups[fi][f.Extract(j)]
		if !ok || g.count == 0 {
			continue
		}
		if fbGroup == nil || g.count > fbGroup.count {
			fbGroup, fbName = g, f.Name
		}
		for k := 0; k < numEstimators; k++ {
			if v := g.nmae[k].Value(); v < bestScore {
				bestScore = v
				bestGroup = g
				bestName = f.Name
				bestKind = EstimatorKind(k)
			}
		}
	}
	if bestGroup == nil {
		if fbGroup != nil {
			// History exists but no expert has been scored yet: use the
			// biggest group's average.
			return Estimate{
				Dist:    dist.NewEmpirical(fbGroup.hist.Clone()),
				Point:   fbGroup.estimate(EstAverage),
				Expert:  fbName + ":average(unscored)",
				Samples: fbGroup.count,
			}
		}
		// No history at all: a broad default around defaultRuntime.
		return Estimate{
			Dist:   dist.NewUniform(0, 2*defaultRuntime),
			Point:  defaultRuntime,
			Expert: "default",
			Novel:  true,
		}
	}
	pt := bestGroup.estimate(bestKind)
	if math.IsNaN(pt) || pt <= 0 {
		pt = defaultRuntime
	}
	return Estimate{
		Dist:    dist.NewEmpirical(bestGroup.hist.Clone()),
		Point:   pt,
		Expert:  bestName + ":" + bestKind.String(),
		Samples: bestGroup.count,
	}
}

// Observe records a completed job's (base-equivalent) runtime into every
// matching feature group (step 4 of Fig. 4), scoring each expert's
// pre-update estimate first.
func (p *Predictor) Observe(j *job.Job, runtime float64) {
	if runtime <= 0 || math.IsNaN(runtime) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for fi, f := range features {
		v := f.Extract(j)
		g, ok := p.groups[fi][v]
		if !ok {
			g = newGroup()
			p.groups[fi][v] = g
		}
		g.observe(runtime)
	}
}

// GroupCount returns the number of live feature-value groups (a memory
// footprint proxy; each group is constant-size).
func (p *Predictor) GroupCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, m := range p.groups {
		n += len(m)
	}
	return n
}
