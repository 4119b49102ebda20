// Command dpcube releases differentially private marginals of a CSV table.
//
// The input CSV needs a header row; every column becomes a categorical
// attribute. The requested marginals are released under ε-differential
// privacy with the Fourier strategy, optimal non-uniform budgets and
// Fourier consistency (the full pipeline of the paper), and printed as
// human-readable tables or CSV.
//
// Usage:
//
//	dpcube -in people.csv -epsilon 0.5 -k 2          # all 2-way marginals
//	dpcube -in people.csv -epsilon 1 -marginals age,sex+income
//	dpcube -in people.csv -epsilon 1 -k 1 -strategy cluster -format csv
//	dpcube -in people.csv -epsilon 1 -k 2 -workers 8 # parallel engine, same output
//
// Ingest mode streams a local CSV or NDJSON file up to a running dpcubed
// daemon (upload once), after which releases reference the dataset by id
// instead of re-uploading rows:
//
//	dpcube -ingest people.csv -server http://localhost:8080 -dataset people
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/strategy"
)

// readTable parses the CSV into a table plus per-column value dictionaries.
func readTable(r io.Reader) (*repro.Table, [][]string, error) {
	return dataset.ReadCSV(r)
}

func main() {
	var (
		in        = flag.String("in", "", "input CSV file (required)")
		epsilon   = flag.Float64("epsilon", 1.0, "privacy budget ε")
		delta     = flag.Float64("delta", 0, "δ for (ε,δ)-DP; 0 keeps pure ε-DP")
		k         = flag.Int("k", 1, "release all k-way marginals (ignored when -marginals is set)")
		marginals = flag.String("marginals", "", "explicit marginals: comma-separated, attributes joined by '+', e.g. age,sex+income")
		strat     = flag.String("strategy", "fourier", "strategy: fourier|workload|identity|cluster")
		uniform   = flag.Bool("uniform", false, "use uniform budgeting instead of the optimal non-uniform allocation")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "release-engine worker pool size; 0 = all CPUs, 1 = serial (output is identical at any setting)")
		format    = flag.String("format", "table", "output format: table|csv")
		preview   = flag.Bool("preview", false, "print the analytic error forecast per strategy and exit without spending any privacy budget")
		ingest    = flag.String("ingest", "", "ingest mode: stream this CSV/NDJSON file to a dpcubed daemon and exit")
		serverURL = flag.String("server", "", "dpcubed base URL for -ingest, e.g. http://localhost:8080")
		datasetID = flag.String("dataset", "", "dataset id to ingest under (with -ingest)")
	)
	flag.Parse()
	if *ingest != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := runIngest(ctx, *ingest, *serverURL, *datasetID); err != nil {
			fatal(err)
		}
		return
	}
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tab, dicts, err := readTable(f)
	if err != nil {
		fatal(err)
	}

	var w *repro.Workload
	if *marginals != "" {
		var sets [][]int
		for _, spec := range strings.Split(*marginals, ",") {
			var set []int
			for _, name := range strings.Split(spec, "+") {
				idx := attrIndex(tab.Schema, strings.TrimSpace(name))
				if idx < 0 {
					fatal(fmt.Errorf("unknown attribute %q", name))
				}
				set = append(set, idx)
			}
			sets = append(sets, set)
		}
		if w, err = repro.MarginalsOver(tab.Schema, sets); err != nil {
			fatal(err)
		}
	} else {
		w = repro.AllKWayMarginals(tab.Schema, *k)
	}

	kind := map[string]repro.StrategyKind{
		"fourier": repro.StrategyFourier, "workload": repro.StrategyWorkload,
		"identity": repro.StrategyIdentity, "cluster": repro.StrategyCluster,
	}[*strat]

	if *preview {
		printPreview(w, *epsilon, *delta, *uniform)
		return
	}

	// Ctrl-C aborts the in-flight release (the engine stops mid-stage)
	// instead of leaving the process burning CPU.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := []repro.ReleaserOption{repro.WithStrategy(kind), repro.WithWorkers(*workers)}
	if *uniform {
		opts = append(opts, repro.WithUniformBudget())
	}
	rel, err := repro.NewReleaserContext(ctx, tab.Schema, w, opts...)
	if err != nil {
		fatal(err)
	}
	res, err := rel.Release(ctx, tab, repro.ReleaseSpec{
		Epsilon: *epsilon,
		Delta:   *delta,
		Seed:    *seed,
	})
	if err != nil {
		fatal(err)
	}

	switch *format {
	case "csv":
		printCSV(tab.Schema, dicts, res)
	default:
		printTables(tab.Schema, dicts, res)
	}
}

func attrIndex(s *repro.Schema, name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

func printTables(s *repro.Schema, dicts [][]string, res *repro.Result) {
	for _, mt := range res.Tables {
		names := make([]string, len(mt.Attrs))
		for i, a := range mt.Attrs {
			names[i] = s.Attrs[a].Name
		}
		fmt.Printf("marginal(%s)  per-cell σ=%.2f\n", strings.Join(names, ", "), math.Sqrt(mt.Variance))
		forEachCell(s, mt, dicts, func(labels []string, v float64) {
			fmt.Printf("  %-40s %10.1f\n", strings.Join(labels, " / "), v)
		})
		fmt.Println()
	}
}

func printCSV(s *repro.Schema, dicts [][]string, res *repro.Result) {
	fmt.Println("marginal,cell,count")
	for _, mt := range res.Tables {
		names := make([]string, len(mt.Attrs))
		for i, a := range mt.Attrs {
			names[i] = s.Attrs[a].Name
		}
		mname := strings.Join(names, "+")
		forEachCell(s, mt, dicts, func(labels []string, v float64) {
			fmt.Printf("%s,%s,%.2f\n", mname, strings.Join(labels, "|"), v)
		})
	}
}

// forEachCell walks the valid cells of a released marginal, mapping binary
// cell indices back to attribute value labels.
func forEachCell(s *repro.Schema, mt repro.MarginalTable, dicts [][]string, fn func(labels []string, v float64)) {
	// Enumerate value combinations of the marginal's attributes.
	var rec func(ai int, labels []string, idx int)
	rec = func(ai int, labels []string, idx int) {
		if ai == len(mt.Attrs) {
			fn(labels, mt.Cells[cellIndexFor(s, mt, idx)])
			return
		}
		attr := mt.Attrs[ai]
		for v := 0; v < s.Attrs[attr].Cardinality; v++ {
			label := fmt.Sprintf("%s=%d", s.Attrs[attr].Name, v)
			if dicts != nil && attr < len(dicts) && v < len(dicts[attr]) {
				label = fmt.Sprintf("%s=%s", s.Attrs[attr].Name, dicts[attr][v])
			}
			rec(ai+1, append(labels, label), idx|v<<uint(s.Offset(attr)))
		}
	}
	rec(0, nil, 0)
}

// cellIndexFor packs a full domain index down to the marginal's cell index.
func cellIndexFor(s *repro.Schema, mt repro.MarginalTable, domainIdx int) int {
	idx := 0
	pos := 0
	for b := 0; b < s.Dim(); b++ {
		if mt.Mask&(1<<uint(b)) == 0 {
			continue
		}
		if domainIdx&(1<<uint(b)) != 0 {
			idx |= 1 << uint(pos)
		}
		pos++
	}
	return idx
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpcube:", err)
	os.Exit(1)
}

// printPreview compares the analytic error forecast of every strategy at
// the requested privacy level — Steps 1–2 only, no data touched, no budget
// spent.
func printPreview(w *repro.Workload, epsilon, delta float64, uniform bool) {
	p := noise.Params{Type: noise.PureDP, Epsilon: epsilon, Neighbor: noise.AddRemove}
	if delta > 0 {
		p.Type, p.Delta = noise.ApproxDP, delta
	}
	budgeting := engine.OptimalBudget
	if uniform {
		budgeting = engine.UniformBudget
	}
	fmt.Printf("forecast at ε=%g (%s budgets): per-cell σ averaged over marginals\n", epsilon, budgeting)
	fmt.Printf("%-10s %14s %16s\n", "strategy", "mean cell σ", "total variance")
	for _, s := range []strategy.Strategy{
		strategy.Fourier{}, strategy.Workload{}, strategy.Identity{}, strategy.Cluster{},
	} {
		fc, err := core.Preview(w, engine.Config{Strategy: s, Budgeting: budgeting, Privacy: p})
		if err != nil {
			fatal(err)
		}
		mean := 0.0
		for _, v := range fc.CellStdDev {
			mean += v
		}
		mean /= float64(len(fc.CellStdDev))
		fmt.Printf("%-10s %14.2f %16.4g\n", s.Name(), mean, fc.TotalVariance)
	}
}
