package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
)

// span is one node of the daemon's debug_timing tree, or the harness's own
// client span wrapped around it.
type span struct {
	Name       string            `json:"name"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Spans      []span            `json:"spans,omitempty"`
}

// self is the span's duration minus the part its children cover.
func (s span) self() float64 {
	d := s.DurationMS
	for _, c := range s.Spans {
		d -= c.DurationMS
	}
	return math.Max(d, 0)
}

// walk visits s and every descendant.
func (s span) walk(f func(span)) {
	f(s)
	for _, c := range s.Spans {
		c.walk(f)
	}
}

// tracedRequest is one line of the span file: the harness's client span
// with the daemon's tree beneath it, joined by the request id the daemon
// echoed.
type tracedRequest struct {
	ID     string `json:"id"`
	Phase  string `json:"phase"`
	Class  string `json:"class"`
	Client span   `json:"span"`
}

var engineStages = []string{"plan", "allocate", "measure", "recover", "consist"}

// tracedRun makes an untraced pass (the denominator of the tracing
// overhead) and a traced pass over fresh daemons, then times the public
// store and accountant calls in-process once no daemon is running.
func tracedRun(c config, in *inputs) (*report, error) {
	plain, err := pass(c, in, false, 1)
	if err != nil {
		return partial(plain), err
	}
	res, err := pass(c, in, true, 1)
	if err != nil {
		return partial(res), err
	}
	reqs, err := spanTree(res)
	if err != nil {
		return nil, err
	}
	spanPath := filepath.Join(c.work, fmt.Sprintf("spans-seed%d.ndjson", c.seed))
	if err := writeSpans(spanPath, reqs); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d traced requests written to %s\n", len(reqs), spanPath)
	ip, err := inProcess(c, in, res.after.releases)
	if err != nil {
		return nil, err
	}

	rep := &report{Correct: true, Metrics: map[string]metric{}}
	rep.Attempted, rep.Failed = attempted(res)
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[name] = metric{v, unit}
	}
	var selfMS, transport, charge, sample, perturb []float64
	stageMS := map[string][]float64{}
	stageSelf := map[string]float64{}
	var busy float64
	for _, r := range reqs {
		root := r.Client.Spans[0]
		selfMS = append(selfMS, root.self())
		busy += root.DurationMS
		if r.Phase == "timed" {
			transport = append(transport, r.Client.DurationMS-root.DurationMS)
		}
		for _, ch := range root.Spans {
			switch ch.Name {
			case "charge":
				charge = append(charge, ch.DurationMS)
			case "sample":
				sample = append(sample, ch.DurationMS)
			}
			for _, st := range engineStages {
				if ch.Name == st {
					stageMS[st] = append(stageMS[st], ch.DurationMS)
					stageSelf[st] += ch.self()
				}
			}
		}
		root.walk(func(s span) {
			if s.Name == "perturb" {
				perturb = append(perturb, s.DurationMS)
			}
		})
	}
	p := func(xs []float64, q float64) float64 {
		v, _ := percentile(xs, q, 0)
		return v
	}
	put("server.self_ms_p50", "ms", p(selfMS, 0.5))
	put("server.transport_ms_p50", "ms", p(transport, 0.5))
	dh, dm := res.after.hits-res.before.hits, res.after.misses-res.before.misses
	put("rescache.hit_ratio", "1", dh/(dh+dm))
	put("accountant.charge_ms_p99", "ms", p(charge, 0.99))
	put("accountant.ledger_entries", "count", float64(res.after.releases))
	put("accountant.spent_us", "us", ip.SpentUS)
	for _, st := range engineStages {
		put("engine."+st+"_ms_p50", "ms", p(stageMS[st], 0.5))
		put("engine."+st+"_share", "1", stageSelf[st]/busy)
	}
	put("engine.perturb_ms_p50", "ms", p(perturb, 0.5))
	// From the daemon's counters rather than the plan span's attribute: a
	// cold workload misses while its Releaser is built, before any span.
	ph, pm := res.after.planHits-res.before.planHits, res.after.planMisses-res.before.planMisses
	put("engine.plan_cache_hit_ratio", "1", ph/(ph+pm))
	put("synth.sample_ms_p50", "ms", p(sample, 0.5))
	put("store.ingest_rows_per_s", "rows/s", ip.IngestRowsPerS)
	put("store.append_ms_p50", "ms", ip.AppendMS)
	// A sum is dominated by the slowest appends, too unsteady on a shared
	// box to gate; the gated append metric is the median.
	put("store.append_rows_per_s", "rows/s", float64(res.appendRows)/(sum(res.appendMS)/1e3))
	n := float64(len(res.lat))
	put("daemon.cpu_ms_per_req", "ms", (res.after.daemonCPU-res.before.daemonCPU)/n)
	put("daemon.gc_runs_per_kreq", "count", (res.after.gcRuns-res.before.gcRuns)/(n/1e3))
	put("daemon.gc_pause_ms", "ms", (res.after.gcPauseS-res.before.gcPauseS)*1e3)
	byClass := map[string][]float64{}
	for i, cl := range res.classes {
		byClass[cl] = append(byClass[cl], res.lat[i])
	}
	for _, cl := range append([]string{"hot"}, coldClassNames()...) {
		put("class."+cl+".latency_p50_ms", "ms", p(byClass[cl], 0.5))
	}
	put("loadgen.cpu_ms_per_req", "ms", (res.after.selfCPU-res.before.selfCPU)/n)
	if kb, err := procStatusKB(os.Getpid(), "VmHWM"); err == nil {
		put("loadgen.peak_rss_mib", "MiB", kb/1024)
	}
	put("loadgen.writer_lateness_ms_p99", "ms", p(res.lateMS, 0.99))
	put("trace.overhead_ratio", "1",
		(float64(res.completed)/res.wallS)/(float64(plain.completed)/plain.wallS))
	return rep, nil
}

// partial turns a failed pass into a report carrying its counts.
func partial(r *result) *report {
	rep := &report{Metrics: map[string]metric{}}
	if r != nil {
		rep.Attempted, rep.Failed = attempted(r)
	}
	return rep
}

// spanTree joins every traced request's daemon tree under the harness's
// client span.
func spanTree(res *result) ([]tracedRequest, error) {
	var out []tracedRequest
	add := func(id, phase, class string, ms float64, raw []byte) error {
		var root span
		if err := json.Unmarshal(raw, &root); err != nil {
			return fmt.Errorf("request %s: timing: %w", id, err)
		}
		out = append(out, tracedRequest{ID: id, Phase: phase, Class: class,
			Client: span{Name: "client", DurationMS: ms, Spans: []span{root}}})
		return nil
	}
	for i, raw := range res.warmTiming {
		if err := add(fmt.Sprintf("warm%d", i), "warm", res.warmClass[i], res.warmTimes[i], raw); err != nil {
			return nil, err
		}
	}
	for i, raw := range res.timings {
		if err := add(res.rids[i], "timed", res.classes[i], res.lat[i], raw); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func writeSpans(path string, reqs []tracedRequest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range reqs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inProcessResult is what the inproc probe prints.
type inProcessResult struct {
	IngestRowsPerS float64 `json:"ingest_rows_per_s"`
	AppendMS       float64 `json:"append_ms_p50"`
	SpentUS        float64 `json:"spent_us"`
}

// inProcess runs the separately built inproc binary, which times public
// store and accountant calls on this run's upload bytes, one writer batch
// and a ledger of the size the daemon ended with.
func inProcess(c config, in *inputs, charges int) (inProcessResult, error) {
	var out inProcessResult
	args := []string{"-charges", fmt.Sprint(charges)}
	for _, up := range in.uploads {
		p := filepath.Join(c.work, up.id+".ndjson")
		if err := os.WriteFile(p, up.body, 0o644); err != nil {
			return out, err
		}
		args = append(args, "-upload", p)
	}
	batch := filepath.Join(c.work, "batch.ndjson")
	if err := os.WriteFile(batch, in.batches[0], 0o644); err != nil {
		return out, err
	}
	args = append(args, "-batch", batch)
	raw, err := exec.Command(filepath.Join(buildDir, "inproc"), args...).Output()
	if err != nil {
		return out, fmt.Errorf("in-process probe: %w", err)
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, fmt.Errorf("in-process probe output: %w", err)
	}
	return out, nil
}
