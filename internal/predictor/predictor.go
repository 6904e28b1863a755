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
	"math"
	"sort"
	"strconv"
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
// from a job: Append appends the job's value of it to dst.
type feature struct {
	Name   string
	Append func(dst []byte, j *job.Job) []byte
}

// tasksBucket appends the resources-requested attribute grouped by power of
// two, so jobs asking for similar node counts share history.
func tasksBucket(dst []byte, k int) []byte {
	b := 1
	for b < k {
		b <<= 1
	}
	return strconv.AppendInt(append(dst, "<="...), int64(b), 10)
}

// features is the feature set: user, job name, their combination,
// resources requested, user×resources, priority, and a catch-all (the
// fallback when a job matches no history).
var features = []feature{
	{"user", func(dst []byte, j *job.Job) []byte { return append(dst, j.User...) }},
	{"name", func(dst []byte, j *job.Job) []byte { return append(dst, j.Name...) }},
	{"user+name", func(dst []byte, j *job.Job) []byte { return append(append(append(dst, j.User...), '/'), j.Name...) }},
	{"resources", func(dst []byte, j *job.Job) []byte { return tasksBucket(dst, j.Tasks) }},
	{"user+resources", func(dst []byte, j *job.Job) []byte { return tasksBucket(append(append(dst, j.User...), '/'), j.Tasks) }},
	{"priority", func(dst []byte, j *job.Job) []byte { return strconv.AppendInt(append(dst, 'p'), int64(j.Priority), 10) }},
	{"all", func(dst []byte, j *job.Job) []byte { return append(dst, '*') }},
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

// group is the constant-memory sketch of one feature value's history. All
// of it but the histogram is inline, one allocation per group.
type group struct {
	hist    *histogram.Histogram
	count   int
	sum     float64
	rolling float64
	recent  [recentK]float64 // ring buffer; the first rLen are live
	rPos    int
	rLen    int
	sorted  [recentK]float64 // the ring's rLen values in ascending order, for EstMedian
	nmae    [numEstimators]stats.NMAE
}

func newGroup() *group {
	return &group{hist: histogram.New(maxBins)}
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
		return stats.SortedMedian(g.sorted[:g.rLen])
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
	s := g.sorted[:g.rLen]
	if g.rLen < recentK {
		g.recent[g.rLen] = runtime
		g.rLen++
	} else {
		i := sort.SearchFloat64s(s, g.recent[g.rPos])
		copy(s[i:], s[i+1:])
		s = s[:len(s)-1]
		g.recent[g.rPos] = runtime
		g.rPos = (g.rPos + 1) % recentK
	}
	i := sort.SearchFloat64s(s, runtime)
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = runtime
}

// resort rebuilds the sorted companion from the ring (after a load).
func (g *group) resort() {
	s := g.sorted[:g.rLen]
	copy(s, g.recentValues())
	sort.Float64s(s)
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
	key    []byte              // guarded by mu; scratch for a job's feature value
}

// lookup returns feature fi's group for j, and j's value of the feature in
// p.key. Looking up m[string(b)] does not allocate.
func (p *Predictor) lookup(fi int, j *job.Job) *group {
	p.key = features[fi].Append(p.key[:0], j)
	return p.groups[fi][string(p.key)]
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
		g := p.lookup(fi, j)
		if g == nil || g.count == 0 {
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
	for fi := range features {
		g := p.lookup(fi, j)
		if g == nil {
			g = newGroup()
			p.groups[fi][string(p.key)] = g
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
