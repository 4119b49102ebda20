// Command perfbench is dpcubed's serving benchmark. It runs the unmodified
// daemon as a separate process, drives one of three workloads over HTTP
// with a fixed amount of seeded work, checks the outputs, and prints every
// metric with its name and unit; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the root of a checkout (perfbench/run.sh builds first):
//
//	bash perfbench/run.sh --workload dashboard-hot --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh steady --workload release-cold --runs 10
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
// makes an untraced and a traced pass and reports the per-layer metrics.
// A correctness-gate failure prints the result with "correct": false and
// exits 1; any other failure exits 2 without a result. See README.md.
package main

import (
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// buildDir holds what run.sh builds, relative to the checkout root the
// benchmark runs from.
const buildDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	os.Exit(bench(os.Args[1:]))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "dashboard-hot, release-cold or append-live")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "nominal run length; the fixed work is scaled from it")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	c := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		bin:      filepath.Join(buildDir, "dpcubed"),
		work:     filepath.Join(buildDir, "work", *workload),
	}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	in, err := buildInputs(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var rep *report
	if *trace == 1 {
		rep, err = tracedRun(c, in)
	} else {
		rep, err = plainRun(c, in)
	}
	var gate gateError
	switch {
	case errors.As(err, &gate):
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", err)
		if rep == nil {
			rep = &report{Metrics: map[string]metric{}}
		}
		if rep.Failed == 0 {
			rep.Attempted, rep.Failed = rep.Attempted+1, 1 // the gate's own check
		}
		rep.Correct = false
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	m := machine(c.bin)
	fmt.Printf("machine: %s\n", m)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	record := struct {
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Seconds  int     `json:"seconds"`
		Trace    int     `json:"trace"`
		Machine  mach    `json:"machine"`
		Result   *report `json:"result"`
	}{c.workload, c.seed, c.seconds, *trace, m, rep}
	if raw, err := json.MarshalIndent(record, "", "  "); err == nil {
		path := filepath.Join(c.work, fmt.Sprintf("result-seed%d-trace%d.json", c.seed, *trace))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// attempted counts every request a pass made: timed reader requests,
// appends and probe releases.
func attempted(r *result) (int, int) {
	failed := r.failed
	for _, ms := range r.appendMS {
		if math.IsInf(ms, 1) {
			failed++
		}
	}
	return len(r.lat) + len(r.appendMS) + r.probeCalls, failed
}

// plainRun is the untraced run behind every end-to-end metric.
func plainRun(c config, in *inputs) (*report, error) {
	res, err := pass(c, in, false, setupRepeats)
	if res == nil {
		return nil, err
	}
	rep := &report{Correct: err == nil, Metrics: map[string]metric{}}
	rep.Attempted, rep.Failed = attempted(res)
	if err != nil {
		return rep, err
	}
	p50, _ := percentile(res.lat, 0.50, 0)
	p99, ok := percentile(res.lat, 0.99, 10)
	if !ok {
		return nil, fmt.Errorf("%d reader requests cannot support a p99 (need ≥ 1000); raise --seconds", len(res.lat))
	}
	fmt.Printf("samples: %d reader requests, %d appends, %d probe releases, %d set-ups\n",
		len(res.lat), len(res.appendMS), res.probeCalls, len(res.setupS))
	put := func(name, unit string, v float64) { rep.Metrics[name] = metric{v, unit} }
	put("setup_s", "s", median(res.setupS))
	put("throughput_rps", "1/s", float64(res.completed)/res.wallS)
	put("latency_p50_ms", "ms", p50)
	put("latency_p99_ms", "ms", p99)
	put("daemon_peak_rss_mib", "MiB", res.rssMiB)
	put("rel_error", "1", res.relErr)
	put("append_p50_ms", "ms", median(res.appendMS))
	return rep, nil
}

// mach is the machine record written with every result.
type mach struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
	CPU        string `json:"cpu_model"`
}

func (m mach) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s GOAMD64=%s cpu=%q", m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.GOAMD64, m.CPU)
}

// machine describes the box and the daemon's build (its Go version and
// GOAMD64 level come from the binary's own build record).
func machine(bin string) mach {
	m := mach{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GOAMD64: "v1"}
	if bi, err := buildinfo.ReadFile(bin); err == nil {
		m.GoVersion = bi.GoVersion
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				m.GOAMD64 = s.Value
			}
		}
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return m
}
