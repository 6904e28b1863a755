// Command 3sigma-loadgen replays a generated workload against a running
// 3sigma-serverd and reports submit-latency percentiles and SLO attainment.
//
// Usage:
//
//	3sigma-loadgen -addr http://localhost:8334 [-env google] [-nodes 64]
//	               [-partitions 4] [-hours 0.125] [-load 1.0]
//	               [-jobs-per-hour 400] [-speedup 1] [-seed 1]
//	               [-timeout 120s] [-wait 0] [-clients 1] [-burst]
//
// Jobs are submitted at their workload arrival times compressed by
// -speedup (which must match the daemon's -timescale for deadlines to be
// meaningful). 429 responses are retried around the server's Retry-After
// hint with seeded decorrelated jitter, so a fleet of replayers with
// distinct seeds does not hammer the daemon in lockstep. The generator
// exits 0 only when every submitted job reaches a terminal phase before
// -timeout.
//
// -addr accepts a comma-separated replica group (DESIGN.md §14). A 307
// from a follower redirects to the leader and retargets the whole run; a
// connection failure or 503 rotates to the next replica, so the generator
// rides out a leader kill -9 without dropping jobs. -clients N submits
// with N concurrent workers and reports aggregate achieved RPS alongside
// the admission-latency percentiles. -burst stamps each job's logical
// submit_at time and submits the whole workload as fast as the daemon
// accepts it: admission cycles then depend only on the stamps, never on
// wall arrival jitter.
//
// Three side modes for scripting (each prints one line and exits):
//
//	3sigma-loadgen -addr ... -predict "user,name,tasks,priority"
//	3sigma-loadgen -addr ... -metrics
//	3sigma-loadgen -addr ... -readyz   (prints the /readyz HTTP status code)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"threesigma/internal/job"
	"threesigma/internal/simulator"
	"threesigma/internal/stats"
	"threesigma/internal/workload"
)

// now is the tool's single sanctioned wall-clock read: loadgen exists to
// pace a live daemon on real time, but funneling every read through one
// annotated site keeps the wallclock lint rule meaningful in this file.
//
//lint:allow wallclock loadgen drives a real daemon in real time; this is its one clock source
var now = time.Now

type jobRequest struct {
	ID            int64   `json:"id,omitempty"`
	Name          string  `json:"name"`
	User          string  `json:"user"`
	Class         string  `json:"class"`
	Priority      int     `json:"priority"`
	Tasks         int     `json:"tasks"`
	Runtime       float64 `json:"runtime"`
	DeadlineIn    float64 `json:"deadline_in,omitempty"`
	NonPrefFactor float64 `json:"nonpref_factor,omitempty"`
	Preferred     []int   `json:"preferred,omitempty"`
	SubmitAt      float64 `json:"submit_at,omitempty"`
}

// targets tracks the replica group and which member the generator
// currently believes is the leader. All mutating requests go to base();
// a 307 Location retargets the group, and rotate() moves on after a
// connection failure or 503 so a leader kill mid-run only costs retries.
type targets struct {
	mu    sync.Mutex
	addrs []string
	cur   int
}

func newTargets(spec string) *targets {
	var addrs []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSuffix(strings.TrimSpace(a), "/"); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fatalf("-addr is empty")
	}
	return &targets{addrs: addrs}
}

func (t *targets) base() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[t.cur]
}

// redirect retargets the group at the leader named in a 307 Location
// header (a full URL: the leader's base plus the original request path).
func (t *targets) redirect(loc string) {
	u, err := url.Parse(loc)
	if err != nil || u.Host == "" {
		t.rotate()
		return
	}
	base := u.Scheme + "://" + u.Host
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, a := range t.addrs {
		if a == base {
			t.cur = i
			return
		}
	}
	t.addrs = append(t.addrs, base)
	t.cur = len(t.addrs) - 1
}

// rotate moves to the next replica round-robin.
func (t *targets) rotate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur = (t.cur + 1) % len(t.addrs)
}

type jobStatus struct {
	Phase          string  `json:"phase"`
	SubmitTime     float64 `json:"submit_time"`
	CompletionTime float64 `json:"completion_time"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "3sigma-loadgen: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "http://localhost:8334", "serverd base URL, or a comma-separated replica group")
	env := flag.String("env", "google", "workload environment: google, hedgefund, mustang")
	nodes := flag.Int("nodes", 64, "cluster size the workload targets")
	parts := flag.Int("partitions", 4, "number of machine partitions")
	hours := flag.Float64("hours", 0.125, "submission window in hours (virtual)")
	load := flag.Float64("load", 1.0, "offered load")
	jph := flag.Float64("jobs-per-hour", 400, "fixed arrival rate (0: load-driven count)")
	speedup := flag.Float64("speedup", 1, "replay speed; must match serverd -timescale")
	seed := flag.Int64("seed", 1, "workload seed")
	timeout := flag.Duration("timeout", 2*time.Minute, "wall-clock limit for the whole run")
	wait := flag.Duration("wait", 0, "wait up to this long for the daemon's /healthz before starting")
	train := flag.Bool("train", true, "feed the workload's pre-training history to /v1/train before replaying")
	predict := flag.String("predict", "", `probe mode: print /v1/predict for "user,name,tasks,priority" and exit`)
	metrics := flag.Bool("metrics", false, "probe mode: print /v1/metrics and exit")
	readyz := flag.Bool("readyz", false, "probe mode: print the /readyz HTTP status code (000 when unreachable) and exit")
	clients := flag.Int("clients", 1, "number of concurrent submission clients")
	burst := flag.Bool("burst", false, "stamp logical submit_at times and submit as fast as the daemon accepts")
	offset := flag.Float64("offset", 0, "virtual seconds added to every -burst submit_at stamp, leaving wall room to finish submitting before the first stamped cycle fires")
	flag.Parse()

	// Redirects are handled by hand (targets.redirect) so a follower's 307
	// both reaches the leader and retargets every later request.
	client := &http.Client{
		Timeout: 10 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	tg := newTargets(*addr)
	if *readyz {
		probeReady(client, tg.base())
		return
	}
	if *wait > 0 {
		waitHealthy(client, tg, *wait)
	}
	if *predict != "" {
		runPredict(client, tg.base(), *predict)
		return
	}
	if *metrics {
		dumpJSON(client, tg.base()+"/v1/metrics")
		return
	}

	e, err := workload.EnvByName(*env)
	if err != nil {
		fatalf("%v", err)
	}
	w := workload.Generate(workload.Config{
		Env:           e,
		Cluster:       simulator.NewCluster(*nodes, *parts),
		DurationHours: *hours,
		Load:          *load,
		JobsPerHour:   *jph,
		Seed:          *seed,
	})
	if len(w.Jobs) == 0 {
		fatalf("generated workload is empty")
	}
	if *train && len(w.Train) > 0 {
		trainDaemon(client, tg, w)
	}
	nClients := *clients
	if nClients < 1 {
		nClients = 1
	}
	fmt.Printf("replaying %d jobs over %.1f virtual minutes at %gx against %s (%d client(s)%s)\n",
		len(w.Jobs), *hours*60, *speedup, *addr, nClients,
		map[bool]string{true: ", burst", false: ""}[*burst])

	deadline := now().Add(*timeout)
	start := now()
	var mu sync.Mutex
	var lats []time.Duration
	submitted := make([]*job.Job, 0, len(w.Jobs))
	rejected := 0
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			bo := newBackoff(*seed + int64(c))
			var myLats []time.Duration
			var mySub []*job.Job
			myRej := 0
			for i := c; i < len(w.Jobs); i += nClients {
				j := w.Jobs[i]
				if !*burst {
					due := start.Add(time.Duration(j.Submit / *speedup * float64(time.Second)))
					if d := due.Sub(now()); d > 0 {
						time.Sleep(d)
					}
				}
				lat, ok := submitJob(client, tg, j, deadline, bo, *burst, *offset)
				if !ok {
					myRej++
					continue
				}
				myLats = append(myLats, lat)
				mySub = append(mySub, j)
			}
			mu.Lock()
			lats = append(lats, myLats...)
			submitted = append(submitted, mySub...)
			rejected += myRej
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	wall := now().Sub(start)
	achieved := 0.0
	if wall > 0 {
		achieved = float64(len(submitted)) / wall.Seconds()
	}
	fmt.Printf("submitted %d jobs (%d dropped) in %v: %.1f req/s achieved across %d client(s)\n",
		len(submitted), rejected, wall.Round(time.Millisecond), achieved, nClients)

	completed, dropped, sloMet, sloTotal := pollOutcomes(client, tg, submitted, deadline)

	fmt.Printf("completed %d/%d (%d cancelled, abandoned, or failed)\n", completed, len(submitted), dropped)
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Printf("admission latency p50 %v  p90 %v  p99 %v\n",
			pct(lats, 0.50), pct(lats, 0.90), pct(lats, 0.99))
	}
	if sloTotal > 0 {
		fmt.Printf("SLO attainment %d/%d (%.1f%%)\n", sloMet, sloTotal, 100*float64(sloMet)/float64(sloTotal))
	}
	if completed+dropped < len(submitted) {
		fatalf("%d jobs still incomplete at timeout", len(submitted)-completed-dropped)
	}
}

// trainDaemon pushes the workload's pre-training history (the paper's
// runtime history database) into the daemon's predictor, following 307s
// to the leader and riding out transient replica unavailability.
func trainDaemon(client *http.Client, tg *targets, w *workload.Workload) {
	type rec struct {
		Name     string  `json:"name"`
		User     string  `json:"user"`
		Tasks    int     `json:"tasks"`
		Priority int     `json:"priority"`
		Runtime  float64 `json:"runtime"`
	}
	payload := struct {
		Jobs []rec `json:"jobs"`
	}{Jobs: make([]rec, 0, len(w.Train))}
	for _, r := range w.Train {
		payload.Jobs = append(payload.Jobs, rec{
			Name: r.Name, User: r.User, Tasks: r.Tasks, Priority: r.Priority, Runtime: r.Runtime,
		})
	}
	body, _ := json.Marshal(payload)
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(tg.base()+"/v1/train", "application/json", bytes.NewReader(body))
		if err != nil {
			if attempt >= 20 {
				fatalf("train: %v", err)
			}
			tg.rotate()
			time.Sleep(200 * time.Millisecond)
			continue
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			fmt.Printf("pre-trained daemon with %d history records\n", len(payload.Jobs))
			return
		case http.StatusTemporaryRedirect:
			tg.redirect(resp.Header.Get("Location"))
		case http.StatusServiceUnavailable:
			if attempt >= 20 {
				fatalf("train: %d %s", resp.StatusCode, strings.TrimSpace(string(msg)))
			}
			tg.rotate()
			time.Sleep(200 * time.Millisecond)
		default:
			fatalf("train: %d %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		}
	}
}

func waitHealthy(client *http.Client, tg *targets, wait time.Duration) {
	deadline := now().Add(wait)
	for {
		resp, err := client.Get(tg.base() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return
			}
		}
		if now().After(deadline) {
			fatalf("daemon at %s not healthy within %v", tg.base(), wait)
		}
		tg.rotate()
		time.Sleep(100 * time.Millisecond)
	}
}

// backoff draws decorrelated-jitter retry delays around the server's
// Retry-After hint. Sleeping exactly the hinted interval resynchronizes
// every waiting client onto the same instant — the daemon sees the whole
// fleet return at once and 429s it again. Decorrelated jitter (each delay
// drawn uniformly from [floor, 3×previous], clamped to a hint-derived cap)
// spreads retries while still backing off under sustained pressure. The
// rng is seeded from -seed so replays stay reproducible.
type backoff struct {
	rng  stats.Rand
	prev time.Duration
}

func newBackoff(seed int64) *backoff {
	return &backoff{rng: stats.NewRand(seed)}
}

// next returns how long to sleep before retrying, given the server's
// Retry-After hint. reset() must be called after an accepted submit so the
// next job's first retry starts from the hint again.
func (b *backoff) next(hint time.Duration) time.Duration {
	floor := hint / 2
	if floor < 100*time.Millisecond {
		floor = 100 * time.Millisecond
	}
	cap := 3 * hint
	if cap < 2*time.Second {
		cap = 2 * time.Second
	}
	if b.prev == 0 {
		b.prev = hint
	}
	hi := 3 * b.prev
	if hi > cap {
		hi = cap
	}
	d := floor
	if hi > floor {
		d = floor + time.Duration(b.rng.Float64()*float64(hi-floor))
	}
	b.prev = d
	return d
}

func (b *backoff) reset() { b.prev = 0 }

// submitJob POSTs one job, honoring 429s with jittered backoff around the
// server's Retry-After until deadline. 307s retarget the replica group at
// the leader; connection failures and 503s rotate to the next replica, so
// a mid-run leader kill costs retries rather than the run. The returned
// latency spans the first attempt through acceptance.
func submitJob(client *http.Client, tg *targets, j *job.Job, deadline time.Time, bo *backoff, burst bool, offset float64) (time.Duration, bool) {
	req := jobRequest{
		ID:            int64(j.ID),
		Name:          j.Name,
		User:          j.User,
		Class:         j.Class.String(),
		Priority:      j.Priority,
		Tasks:         j.Tasks,
		Runtime:       j.Runtime,
		NonPrefFactor: j.NonPrefFactor,
		Preferred:     j.Preferred,
	}
	if j.HasDeadline() {
		req.Class = "SLO"
		req.DeadlineIn = j.Deadline - j.Submit
	}
	if burst {
		req.SubmitAt = j.Submit + offset
	}
	body, _ := json.Marshal(req)
	t0 := now()
	resent := false // a POST died mid-flight; its fate on the server is unknown
	for {
		resp, err := client.Post(tg.base()+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			if now().After(deadline) {
				fatalf("submit job %d: %v", j.ID, err)
			}
			resent = true
			tg.rotate()
			time.Sleep(100 * time.Millisecond)
			continue
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			bo.reset()
			return now().Sub(t0), true
		case http.StatusConflict:
			// Job IDs are unique per run, so a 409 after a connection
			// failure means the lost attempt actually landed (the leader
			// replicated it before dying): the submission succeeded.
			if resent {
				bo.reset()
				return now().Sub(t0), true
			}
			fatalf("submit job %d: %d %s", j.ID, resp.StatusCode, strings.TrimSpace(string(msg)))
		case http.StatusTemporaryRedirect:
			if now().After(deadline) {
				return 0, false
			}
			tg.redirect(resp.Header.Get("Location"))
		case http.StatusServiceUnavailable:
			if now().After(deadline) {
				return 0, false
			}
			tg.rotate()
			time.Sleep(100 * time.Millisecond)
		case http.StatusTooManyRequests:
			hint := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if n, err := strconv.Atoi(s); err == nil && n > 0 {
					hint = time.Duration(n) * time.Second
				}
			}
			retry := bo.next(hint)
			if now().Add(retry).After(deadline) {
				return 0, false
			}
			time.Sleep(retry)
		default:
			fatalf("submit job %d: %d %s", j.ID, resp.StatusCode, strings.TrimSpace(string(msg)))
		}
	}
}

// pollOutcomes tracks submitted jobs until every one is terminal
// (completed, cancelled, abandoned, or failed out of its retry budget) or
// the deadline passes.
func pollOutcomes(client *http.Client, tg *targets, jobs []*job.Job, deadline time.Time) (completed, dropped, sloMet, sloTotal int) {
	pendingDeadline := make(map[int64]float64) // id -> deadline_in (SLO only)
	open := make(map[int64]bool, len(jobs))
	for _, j := range jobs {
		open[int64(j.ID)] = true
		if j.HasDeadline() {
			pendingDeadline[int64(j.ID)] = j.Deadline - j.Submit
			sloTotal++
		}
	}
	for len(open) > 0 && now().Before(deadline) {
		for id := range open {
			resp, err := client.Get(fmt.Sprintf("%s/v1/jobs/%d", tg.base(), id))
			if err != nil {
				// Replica down (possibly killed mid-failover): rotate and
				// pick the poll back up next sweep.
				tg.rotate()
				break
			}
			if resp.StatusCode == http.StatusTemporaryRedirect {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				tg.redirect(resp.Header.Get("Location"))
				break
			}
			var st jobStatus
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			switch st.Phase {
			case "completed":
				completed++
				if din, ok := pendingDeadline[id]; ok && st.CompletionTime <= st.SubmitTime+din {
					sloMet++
				}
				delete(open, id)
			case "cancelled", "abandoned", "failed":
				dropped++
				delete(open, id)
			}
		}
		if len(open) > 0 {
			time.Sleep(200 * time.Millisecond)
		}
	}
	return
}

func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i].Round(time.Microsecond)
}

func runPredict(client *http.Client, addr, spec string) {
	parts := strings.Split(spec, ",")
	if len(parts) != 4 {
		fatalf(`-predict wants "user,name,tasks,priority", got %q`, spec)
	}
	tasks, err1 := strconv.Atoi(strings.TrimSpace(parts[2]))
	prio, err2 := strconv.Atoi(strings.TrimSpace(parts[3]))
	if err1 != nil || err2 != nil {
		fatalf("bad tasks/priority in %q", spec)
	}
	body, _ := json.Marshal(map[string]any{
		"user": strings.TrimSpace(parts[0]), "name": strings.TrimSpace(parts[1]),
		"tasks": tasks, "priority": prio,
	})
	resp, err := client.Post(addr+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		fatalf("%v", err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		fatalf("predict: %d %s", resp.StatusCode, strings.TrimSpace(string(out)))
	}
	if _, err := os.Stdout.Write(out); err != nil {
		fatalf("write stdout: %v", err)
	}
}

// probeReady prints the /readyz HTTP status code and exits 0 regardless,
// so shell polling loops (smoke_service.sh) can compare codes without
// needing curl in the container. Connection failures print "000".
func probeReady(client *http.Client, addr string) {
	resp, err := client.Get(addr + "/readyz")
	if err != nil {
		fmt.Println("000")
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	fmt.Println(resp.StatusCode)
}

func dumpJSON(client *http.Client, url string) {
	resp, err := client.Get(url)
	if err != nil {
		fatalf("%v", err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		fatalf("%s: %d %s", url, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	if _, err := os.Stdout.Write(out); err != nil {
		fatalf("write stdout: %v", err)
	}
}
