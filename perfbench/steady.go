package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness report reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady repeats one workload over consecutive seeds and prints, for each
// end-to-end metric, the median, the quartiles (Python's
// statistics.quantiles, n=4) and the interquartile spread as a share of the
// median against the metric's bound. It exits 1 when any spread other than
// setup_s exceeds its bound, or any run fails.
func steady(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs")
	seed0 := fs.Uint64("seed0", 1, "seed of the first run; later runs count up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	values := map[string][]float64{}
	for i := 0; i < *runs; i++ {
		seed := *seed0 + uint64(i)
		cmd := exec.Command(self, "--workload", *workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "steady: run %d (seed %d): %v\n", i+1, seed, err)
			return 1
		}
		rep, err := lastReport(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "steady: run %d (seed %d): %v\n", i+1, seed, err)
			return 1
		}
		fmt.Printf("run %2d seed %-4d", i+1, seed)
		for _, m := range bf.EndToEnd {
			v := rep.Metrics[m.Name].Value
			values[m.Name] = append(values[m.Name], v)
			fmt.Printf(" %s=%.5g", m.Name, v)
		}
		fmt.Println()
	}
	fmt.Printf("\n%s: %d runs\n%-22s %12s %12s %12s %8s %6s  %s\n", *workload, *runs,
		"metric", "median", "q1", "q3", "spread", "bound", "verdict")
	status := 0
	for _, m := range bf.EndToEnd {
		xs := values[m.Name]
		q1, _, q3 := quartiles(xs)
		med := median(xs)
		spread := math.Abs(q3-q1) / med
		verdict := "ok"
		switch {
		case spread > m.Bound && m.Name != "setup_s":
			verdict = "OVER BOUND"
			status = 1
		case spread > m.Bound:
			verdict = "over bound (setup_s is not held to it)"
		case spread > m.Bound/3:
			verdict = "over a third of the bound"
		}
		fmt.Printf("%-22s %12.5g %12.5g %12.5g %8.4f %6.3f  %s\n", m.Name, med, q1, q3, spread, m.Bound, verdict)
	}
	return status
}

// lastReport parses the final non-empty line of a run's standard output.
func lastReport(out []byte) (*report, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("run reported correct=false")
	}
	return &rep, nil
}
