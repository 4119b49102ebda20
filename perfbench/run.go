package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Workload sizing. A run does a fixed amount of work — never a fixed
// duration — because every response recomposes the whole ledger: in a
// fixed-duration run a fast start would make every later request slower.
// The work is scaled from --seconds by these nominal rates, measured on a
// 2-vCPU Xeon VM, so a timed phase lasts roughly --seconds there.
const (
	hotRate    = 3000 // dashboard-hot requests per second, both clients
	hotUnique  = 0.05 // share of dashboard-hot requests that are unique Fourier Q2 releases
	coldRate   = 165  // release-cold requests per second
	readerRate = 2500 // append-live reader requests per second

	batchRows     = 1000                   // rows per append batch
	liveInterval  = 750 * time.Millisecond // append-live writer schedule
	quietAppends  = 32                     // appends after the timed phase elsewhere
	quietInterval = 40 * time.Millisecond
	quietSettle   = time.Second // idle time before the quiet appends
	setupRepeats  = 3           // set-ups per run; setup_s is their median
	hotClients    = 2
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  int
	bin      string // dpcubed binary
	work     string // scratch directory inside the checkout
}

// inputs is everything a run sends, generated from the seed alone.
type inputs struct {
	nltcs, adult *relation
	uploads      []upload
	hot          []spec
	warm         []spec
	seq          []spec   // reader sequence of the timed phase
	batches      [][]byte // NDJSON append batches, in schedule order
	batchTuples  [][][]int
	interval     time.Duration
	probe        []spec
	clients      int
}

type upload struct {
	id   string
	body []byte
}

func buildInputs(c config) (*inputs, error) {
	in := &inputs{nltcs: genNLTCS(derive(c.seed, 1), nltcsRows)}
	in.uploads = []upload{{"nltcs", ndjson(in.nltcs.Schema, in.nltcs.Rows)}}
	u := newUniqueSeeds(c.seed)
	in.hot = hotSet(c.seed)
	in.probe = probeSet(c.seed)
	in.clients = 1
	r := newRNG(derive(c.seed, 23))
	appends := quietAppends
	in.interval = quietInterval
	switch c.workload {
	case "dashboard-hot":
		in.clients = hotClients
		in.warm = in.hot
		n := c.seconds * hotRate
		in.seq = make([]spec, n)
		for i := range in.seq {
			if r.float() < hotUnique {
				in.seq[i] = spec{path: "/v1/release", class: "nltcs.fourier.q2", DatasetID: "nltcs",
					Workload: wlSpec{K: 2}, Epsilon: 1, Strategy: "fourier", Seed: u.take()}
			} else {
				in.seq[i] = in.hot[r.intn(len(in.hot))]
			}
		}
	case "release-cold":
		in.adult = genAdult(derive(c.seed, 2), adultRows)
		in.uploads = append(in.uploads, upload{"adult", ndjson(in.adult.Schema, in.adult.Rows)})
		cp := &coldPlanner{seen: map[string]bool{}}
		in.warm = coldWarmup(u, cp, r)
		in.seq = coldSequence(c.seed, c.seconds*coldRate, u, cp)
	case "append-live":
		in.warm = in.hot
		in.seq = make([]spec, c.seconds*readerRate)
		for i := range in.seq {
			in.seq[i] = in.hot[r.intn(len(in.hot))]
		}
		// Eight appends per ten nominal seconds, due over the first 60% of
		// the reader phase: every append lands while the reader runs even
		// on a much faster program, so the hot set is recomputed exactly
		// once per append and the miss count is fixed.
		appends = max(1, c.seconds*4/5)
		in.interval = liveInterval
	default:
		return nil, fmt.Errorf("unknown workload %q (want dashboard-hot, release-cold or append-live)", c.workload)
	}
	br := newRNG(derive(c.seed, 29))
	for i := 0; i < appends; i++ {
		rel := genNLTCS(br.next(), batchRows)
		in.batchTuples = append(in.batchTuples, rel.Rows)
		in.batches = append(in.batches, ndjson(rel.Schema, rel.Rows))
	}
	return in, nil
}

// hotIndex maps a request body to its hot-set index (-1 if not hot).
func hotIndex(hot []spec, s spec) int {
	for i, h := range hot {
		if h.path == s.path && h.Seed == s.Seed && h.Strategy == s.Strategy &&
			h.Workload.K == s.Workload.K && h.Epsilon == s.Epsilon && h.class == s.class {
			return i
		}
	}
	return -1
}

// result is one untraced or traced pass over a fresh daemon.
type result struct {
	setupS     []float64
	lat        []float64 // reader latency, ms; +Inf for a failed request
	classes    []string
	timings    [][]byte // traced: the daemon's span tree per request
	rids       []string
	wallS      float64
	completed  int
	failed     int
	appendMS   []float64
	lateMS     []float64
	appendRows int
	relErr     float64
	rssMiB     float64
	before     counters
	after      counters
	probeCalls int
	warmTimes  []float64
	warmTiming [][]byte
	warmClass  []string
}

// counters are the daemon's own numbers, read at the timed-phase
// boundaries.
type counters struct {
	releases   int
	hits       float64
	misses     float64
	planHits   float64
	planMisses float64
	gcRuns     float64
	gcPauseS   float64
	daemonCPU  float64
	selfCPU    float64
}

func readCounters(d *daemon) (counters, error) {
	var c counters
	raw, err := d.get("/v1/budget")
	if err != nil {
		return c, err
	}
	var b struct {
		Releases int `json:"releases"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return c, fmt.Errorf("budget: %w", err)
	}
	c.releases = b.Releases
	raw, err = d.get("/v1/metrics")
	if err != nil {
		return c, err
	}
	var m struct {
		ResultCache *struct{ Hits, Misses float64 } `json:"result_cache"`
		PlanCache   struct{ Hits, Misses float64 }  `json:"plan_cache"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return c, fmt.Errorf("metrics: %w", err)
	}
	if m.ResultCache != nil {
		c.hits, c.misses = m.ResultCache.Hits, m.ResultCache.Misses
	}
	c.planHits, c.planMisses = m.PlanCache.Hits, m.PlanCache.Misses
	raw, err = d.get("/v1/metrics?format=prometheus")
	if err != nil {
		return c, err
	}
	c.gcRuns = promValue(raw, "go_gc_runs_total")
	c.gcPauseS = promValue(raw, "go_gc_pause_seconds_total")
	if c.daemonCPU, err = procCPU(d.cmd.Process.Pid); err != nil {
		return c, err
	}
	c.selfCPU = selfCPU()
	return c, nil
}

// promValue reads an unlabelled sample from Prometheus text exposition.
func promValue(text []byte, name string) float64 {
	for _, line := range bytes.Split(text, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(name+" "))
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(string(bytes.TrimSpace(rest)), 64)
		if err == nil {
			return v
		}
	}
	return math.NaN()
}

// gateError is a correctness-gate failure: the benchmark reports it and
// exits non-zero.
type gateError struct{ msg string }

func (e gateError) Error() string { return e.msg }

func gatef(format string, a ...any) error { return gateError{fmt.Sprintf(format, a...)} }

// setup starts a daemon, uploads the datasets and runs the warm-up pass:
// the part of a run a later change could make slower by moving work out of
// the timed phase. It returns the hot payloads (response bytes before the
// spliced budget) for the replay check.
func setup(c config, in *inputs, traced bool, res *result) (*daemon, [][]byte, error) {
	start := time.Now()
	d, err := startDaemon(c.bin, c.work+"/dpcubed.stderr")
	if err != nil {
		return nil, nil, err
	}
	for _, up := range in.uploads {
		status, body, err := d.put("/v1/datasets/"+up.id, up.body)
		if err != nil || status != http.StatusCreated {
			d.stop()
			return nil, nil, gatef("upload %s: status %d err %v: %s", up.id, status, err, bytes.TrimSpace(body))
		}
	}
	hotPayload := make([][]byte, len(in.hot))
	cl := &caller{d: d}
	for _, s := range in.warm {
		t0 := time.Now()
		rq := s.request(traced, hotIndex(in.hot, s))
		status, body, err := cl.do(rq, "warm")
		ms := float64(time.Since(t0)) / 1e6
		if err != nil || status != http.StatusOK {
			d.stop()
			return nil, nil, gatef("warm-up %s %s: status %d err %v: %s", s.path, s.class, status, err, bytes.TrimSpace(body))
		}
		if err := validJSON(body); err != nil {
			d.stop()
			return nil, nil, gatef("warm-up %s: %v", s.class, err)
		}
		if rq.hot >= 0 {
			hotPayload[rq.hot] = append([]byte(nil), payloadOf(body)...)
		}
		if traced {
			res.warmTimes = append(res.warmTimes, ms)
			res.warmTiming = append(res.warmTiming, append([]byte(nil), timingOf(body)...))
			res.warmClass = append(res.warmClass, s.class)
		}
	}
	res.setupS = append(res.setupS, time.Since(start).Seconds())
	return d, hotPayload, nil
}

// caller issues requests over one keep-alive connection pool, reading each
// body into a reused buffer (valid until the next call).
type caller struct {
	d   *daemon
	buf bytes.Buffer
}

func (c *caller) do(r request, rid string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.d.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	resp, err := c.d.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

var (
	budgetMark = []byte(`,"budget":`)
	timingMark = []byte(`,"timing":`)
)

// payloadOf is the response without its per-response splices (budget and
// timing): the bytes the result cache stores and must replay unchanged.
func payloadOf(body []byte) []byte {
	if i := bytes.LastIndex(body, budgetMark); i >= 0 {
		return body[:i]
	}
	return nil
}

// timingOf is the spliced span tree of a debug_timing response.
func timingOf(body []byte) []byte {
	i := bytes.LastIndex(body, timingMark)
	if i < 0 {
		return nil
	}
	t := bytes.TrimRight(body[i+len(timingMark):], "\n")
	return t[:len(t)-1] // the response object's closing brace
}

func validJSON(body []byte) error {
	if !json.Valid(body) {
		return errors.New("response is not valid JSON")
	}
	if payloadOf(body) == nil {
		return errors.New("response carries no budget")
	}
	return nil
}

// timed runs the reader sequence (and, in append-live, the writer
// schedule beside it) and records every request.
func timed(d *daemon, in *inputs, hotPayload [][]byte, traced bool, live bool, res *result) {
	reqs := make([]request, len(in.seq))
	for i, s := range in.seq {
		reqs[i] = s.request(traced, hotIndex(in.hot, s))
	}
	n := len(reqs)
	res.lat = make([]float64, n)
	res.classes = make([]string, n)
	res.rids = make([]string, n)
	if traced {
		res.timings = make([][]byte, n)
	}
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	var writerDone chan struct{}
	if live {
		writerDone = make(chan struct{})
		go func() {
			writer(d, in, start, res)
			close(writerDone)
		}()
	}
	for w := 0; w < in.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &caller{d: d}
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r := reqs[i]
				rid := "r" + strconv.Itoa(i)
				t0 := time.Now()
				status, body, err := cl.do(r, rid)
				ms := float64(time.Since(t0)) / 1e6
				ok := err == nil && status == http.StatusOK
				if ok {
					p := payloadOf(body)
					switch {
					case p == nil:
						ok = false
					case r.hot >= 0 && !live:
						ok = bytes.Equal(p, hotPayload[r.hot])
					}
				}
				if !ok {
					failed.Add(1)
					ms = math.Inf(1)
				}
				res.lat[i], res.classes[i], res.rids[i] = ms, r.class, rid
				if traced && ok {
					res.timings[i] = append([]byte(nil), timingOf(body)...)
				}
			}
		}()
	}
	wg.Wait()
	res.wallS = time.Since(start).Seconds()
	if live {
		<-writerDone
	}
	res.failed = int(failed.Load())
	res.completed = n - res.failed
}

// writer appends the prepared batches on a fixed open-loop schedule
// starting at start, timing each from when it was due.
func writer(d *daemon, in *inputs, start time.Time, res *result) {
	for i, b := range in.batches {
		due := start.Add(time.Duration(i) * in.interval)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		sent := time.Now()
		status, _, err := d.put("/v1/datasets/nltcs?mode=append", b)
		done := time.Now()
		if err != nil || status != http.StatusCreated {
			res.appendMS = append(res.appendMS, math.Inf(1))
		} else {
			res.appendMS = append(res.appendMS, float64(done.Sub(due))/1e6)
			res.appendRows += batchRows
		}
		res.lateMS = append(res.lateMS, float64(sent.Sub(due))/1e6)
	}
}

// probe runs the accuracy probe against truth computed from the harness's
// own rows (initial upload plus every appended batch) and checks the
// empirical squared error against the variance the responses report.
func probe(d *daemon, in *inputs, rows [][]int, res *result) error {
	type group struct {
		strategy string
		raw      bool
	}
	sq, vsum := map[group]float64{}, map[group]float64{}
	var groups []group
	cl := &caller{d: d}
	var errs []float64
	for _, s := range in.probe {
		status, body, err := cl.do(s.request(false, -1), "probe")
		if err != nil || status != http.StatusOK {
			return gatef("probe %s: status %d err %v", s.Strategy, status, err)
		}
		var out struct {
			Tables []struct {
				Attrs    []int     `json:"attrs"`
				Cells    []float64 `json:"cells"`
				Variance float64   `json:"variance"`
			} `json:"tables"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return gatef("probe %s: %v", s.Strategy, err)
		}
		g := group{s.Strategy, s.SkipConsistency}
		if _, ok := vsum[g]; !ok {
			groups = append(groups, g)
		}
		var truth, noisy []float64
		for _, t := range out.Tables {
			tr := marginal(in.nltcs.Schema, rows, t.Attrs)
			if len(tr) != len(t.Cells) {
				return gatef("probe %s: marginal %v has %d cells, want %d", s.Strategy, t.Attrs, len(t.Cells), len(tr))
			}
			for i := range tr {
				e := t.Cells[i] - tr[i]
				sq[g] += e * e
				vsum[g] += t.Variance
			}
			truth = append(truth, tr...)
			noisy = append(noisy, t.Cells...)
		}
		if len(truth) == 0 {
			return gatef("probe %s: no tables", s.Strategy)
		}
		if !s.SkipConsistency {
			errs = append(errs, relativeError(truth, noisy))
		}
		res.probeCalls++
	}
	// Per strategy, the squared error summed over the probe's seeds must
	// match the summed reported variance within a fixed factor: a
	// miscalibrated noise scale (or a variance that no longer describes
	// the noise) fails the run. The daemon reports pre-consistency
	// variance, which raw releases must match from both sides; the
	// consistency projection may only shrink the error. Summing over seeds
	// matters: one release's error is dominated by a few low-order noise
	// coefficients (the total count's above all), so single releases
	// stray past any fixed factor now and then.
	for _, g := range groups {
		ratio := sq[g] / vsum[g]
		if ratio > varianceFactor || (g.raw && ratio < 1/varianceFactor) {
			return gatef("probe %s raw=%v: squared error / reported variance = %.3f, outside [1/%g, %g]",
				g.strategy, g.raw, ratio, varianceFactor, varianceFactor)
		}
	}
	res.relErr = sum(errs) / float64(len(errs))
	return nil
}

const varianceFactor = 3.0

// datasetRows reads the row count the daemon holds for id.
func datasetRows(d *daemon, id string) (int64, error) {
	raw, err := d.get("/v1/datasets/" + id)
	if err != nil {
		return 0, err
	}
	var info struct {
		Rows int64 `json:"rows"`
	}
	if err := json.Unmarshal(raw, &info); err != nil {
		return 0, fmt.Errorf("dataset info: %w", err)
	}
	return info.Rows, nil
}

// pass is one complete run over fresh daemons: setupRepeats set-ups (all
// but the last daemon stopped again), the timed phase, the gates, the
// append pass where the workload has no live writer, and the probe.
func pass(c config, in *inputs, traced bool, repeats int) (*result, error) {
	res := &result{}
	var d *daemon
	var hotPayload [][]byte
	for i := 0; i < repeats; i++ {
		prev := hotPayload
		var err error
		d, hotPayload, err = setup(c, in, traced, res)
		if err != nil {
			return nil, err
		}
		for k := range prev {
			if !bytes.Equal(prev[k], hotPayload[k]) {
				d.stop()
				return nil, gatef("hot key %d: a fresh daemon released different bytes for the same request", k)
			}
		}
		if i < repeats-1 {
			d.stop()
		}
	}
	defer d.stop()
	live := c.workload == "append-live"
	before, err := readCounters(d)
	if err != nil {
		return nil, err
	}
	timed(d, in, hotPayload, traced, live, res)
	after, err := readCounters(d)
	if err != nil {
		return nil, err
	}
	res.before, res.after = before, after
	if res.failed > 0 {
		return res, gatef("%d of %d requests failed", res.failed, len(in.seq))
	}
	charged := after.releases - before.releases
	switch c.workload {
	case "dashboard-hot":
		unique := 0
		for _, s := range in.seq {
			if s.class != "hot" {
				unique++
			}
		}
		if charged != unique {
			return res, gatef("ledger: %d charges in the timed phase, want one per unique request (%d)", charged, unique)
		}
	case "release-cold":
		if charged != len(in.seq) {
			return res, gatef("ledger: %d charges in the timed phase, want one per request (%d)", charged, len(in.seq))
		}
	case "append-live":
		if misses := int(after.misses - before.misses); charged != misses {
			return res, gatef("ledger: %d charges in the timed phase, want one per result-cache miss (%d)", charged, misses)
		}
	}
	if !live {
		// Let the timed phase's garbage collection finish first: an append
		// that lands in a cycle marking a few hundred MiB of cached payloads
		// pays for it in assists, and the quiet pass would time the
		// collector instead of the ingest path.
		time.Sleep(quietSettle)
		writer(d, in, time.Now(), res)
	}
	for _, ms := range res.appendMS {
		if math.IsInf(ms, 1) {
			return res, gatef("an append failed")
		}
	}
	rows := append([][]int(nil), in.nltcs.Rows...)
	for _, b := range in.batchTuples {
		rows = append(rows, b...)
	}
	got, err := datasetRows(d, "nltcs")
	if err != nil {
		return res, err
	}
	if want := int64(nltcsRows + res.appendRows); got != want || len(rows) != int(want) {
		return res, gatef("dataset nltcs holds %d rows, want %d initial + %d appended", got, nltcsRows, res.appendRows)
	}
	if err := probe(d, in, rows, res); err != nil {
		return res, err
	}
	if res.rssMiB, err = procStatusKB(d.cmd.Process.Pid, "VmHWM"); err != nil {
		return res, err
	}
	res.rssMiB /= 1024
	return res, nil
}
