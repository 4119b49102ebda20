// Command inproc times public store and accountant calls in-process, for
// the per-layer metrics of perfbench's traced run. It is the only part of
// the benchmark that imports the repository's internal packages, and it is
// built separately, so an internal API change can break the traced pass
// but never the end-to-end run.
//
//	inproc -upload nltcs.ndjson [-upload adult.ndjson] -batch batch.ndjson -charges N
//
// It prints one JSON object: ingest_rows_per_s (rows of all uploads over
// the median time to ingest them all), append_ms_p50 (median time to
// append the batch to the first upload) and spent_us (median time of
// Accountant.Spent over a ledger holding N charges).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/accountant"
	"repro/internal/store"
)

const reps = 7

type uploads []string

func (u *uploads) String() string     { return strings.Join(*u, ",") }
func (u *uploads) Set(v string) error { *u = append(*u, v); return nil }

func main() {
	var ups uploads
	flag.Var(&ups, "upload", "NDJSON upload file (repeatable)")
	batch := flag.String("batch", "", "NDJSON append batch")
	charges := flag.Int("charges", 0, "ledger size for the Spent timing")
	flag.Parse()
	if err := run(ups, *batch, *charges); err != nil {
		fmt.Fprintln(os.Stderr, "inproc:", err)
		os.Exit(1)
	}
}

func run(ups []string, batchPath string, charges int) error {
	if len(ups) == 0 || batchPath == "" {
		return fmt.Errorf("need -upload and -batch")
	}
	ctx := context.Background()
	bodies := make([][]byte, len(ups))
	var rows int64
	for i, p := range ups {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	batch, err := os.ReadFile(batchPath)
	if err != nil {
		return err
	}

	var ingest, appendMS []float64
	for r := 0; r < reps; r++ {
		st, err := store.Open(store.Config{})
		if err != nil {
			return err
		}
		rows = 0
		t0 := time.Now()
		for i, b := range bodies {
			info, err := st.IngestNDJSON(ctx, fmt.Sprintf("d%d", i), bytes.NewReader(b), store.IngestOptions{})
			if err != nil {
				return fmt.Errorf("ingest %s: %w", ups[i], err)
			}
			rows += info.Rows
		}
		ingest = append(ingest, time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := st.AppendNDJSON(ctx, "d0", bytes.NewReader(batch), store.IngestOptions{}); err != nil {
			return fmt.Errorf("append: %w", err)
		}
		appendMS = append(appendMS, float64(time.Since(t0))/1e6)
	}

	// A ledger shaped like the daemon's after the run: one pure-ε charge
	// per release, under a cap no run reaches.
	a, err := accountant.New(1e12, 1e-3)
	if err != nil {
		return err
	}
	for i := 0; i < charges; i++ {
		if err := a.Charge(accountant.Charge{Label: fmt.Sprintf("release-%d", i), Epsilon: 1}); err != nil {
			return err
		}
	}
	var spent []float64
	for r := 0; r < 201; r++ {
		t0 := time.Now()
		a.Spent()
		spent = append(spent, float64(time.Since(t0))/1e3)
	}

	return json.NewEncoder(os.Stdout).Encode(map[string]float64{
		"ingest_rows_per_s": float64(rows) / median(ingest),
		"append_ms_p50":     median(appendMS),
		"spent_us":          median(spent),
	})
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
