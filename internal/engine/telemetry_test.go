package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/marginal"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/vector"
)

func tracedDomain(t *testing.T, d int) (*marginal.Workload, *vector.Blocked) {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	n := 1 << uint(d)
	x := vector.New(n, 2)
	for i := 0; i < n; i++ {
		x.Set(i, float64(rng.Intn(10)))
	}
	return marginal.AllKWay(d, 2), x
}

// TestRunVectorTraced drives a release over a blocked input with a detail
// trace and checks the span tree: one span per pipeline stage in order, the
// worker annotation and the perturb detail sub-span on measure, and stage
// durations observed into the registry's stage histogram.
func TestRunVectorTraced(t *testing.T) {
	w, x := tracedDomain(t, 6)
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTrace(reg, "test-release", true)
	ctx := telemetry.ContextWithTrace(context.Background(), tr)
	cfg := Config{
		Strategy: strategy.Workload{}, Budgeting: OptimalBudget,
		Consistency: WeightedL2Consistency, Privacy: pureParams(0.9), Seed: 7,
	}
	if _, err := New(Options{Workers: 2}).RunVector(ctx, w, x, cfg); err != nil {
		t.Fatal(err)
	}

	tree := tr.Tree()
	wantStages := []string{"plan", "allocate", "measure", "recover", "consist"}
	if len(tree.Spans) != len(wantStages) {
		t.Fatalf("root has %d spans %v, want the %d stages", len(tree.Spans), names(tree.Spans), len(wantStages))
	}
	sum := 0.0
	for i, stage := range wantStages {
		sp := tree.Spans[i]
		if sp.Name != stage {
			t.Errorf("span[%d] = %q, want %q", i, sp.Name, stage)
		}
		if sp.DurationMS <= 0 {
			t.Errorf("stage %s duration = %g, want > 0", stage, sp.DurationMS)
		}
		sum += sp.DurationMS
		// Every stage observed exactly one duration into the shared
		// histogram this JSON /v1/metrics "stages" section reads.
		if got := telemetry.StageHistogram(reg, stage).Count(); got != 1 {
			t.Errorf("stage histogram %q count = %d, want 1", stage, got)
		}
	}
	if tree.DurationMS < sum {
		t.Errorf("root duration %gms < stage sum %gms: stage spans exceed wall time", tree.DurationMS, sum)
	}

	measure := tree.Spans[2]
	if measure.Attrs["workers"] != "2" {
		t.Errorf("measure attrs = %v, want workers=2", measure.Attrs)
	}
	if got := names(measure.Spans); len(got) != 1 || got[0] != "perturb" {
		t.Errorf("measure sub-spans = %v, want one perturb", got)
	}
	if len(tree.Spans[3].Spans) == 0 {
		t.Errorf("recover span has no sub-spans, want recover.serial or recover.marginal")
	}
}

// TestRunVectorTracedNoDetail checks the normal (no debug_timing) path
// keeps the span count O(stages): stage spans present, sub-spans absent.
func TestRunVectorTracedNoDetail(t *testing.T) {
	w, x := tracedDomain(t, 6)
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTrace(reg, "test-release", false)
	ctx := telemetry.ContextWithTrace(context.Background(), tr)
	cfg := Config{
		Strategy: strategy.Workload{}, Budgeting: OptimalBudget,
		Consistency: NoConsistency, Privacy: pureParams(0.9), Seed: 7,
	}
	if _, err := New(Options{Workers: 2}).RunVector(ctx, w, x, cfg); err != nil {
		t.Fatal(err)
	}
	tree := tr.Tree()
	if len(tree.Spans) != 5 {
		t.Fatalf("root has %d spans, want 5 stages", len(tree.Spans))
	}
	for _, sp := range tree.Spans {
		if len(sp.Spans) != 0 {
			t.Errorf("stage %q recorded %d sub-spans without detail", sp.Name, len(sp.Spans))
		}
	}
}

// TestInnerLoopInstrumentationZeroAlloc pins the instrumentation cost of
// the hot inner loops when no trace rides the context: the exact call
// shapes Measurer.Measure and Recoverer.Recover emit per release and per
// marginal must allocate nothing, so an un-traced release pays zero for
// the telemetry hooks.
func TestInnerLoopInstrumentationZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		sp := telemetry.SpanFrom(ctx)
		msp := sp.StartDetail("recover.marginal")
		msp.AnnotateInt("marginal", 3)
		msp.End()
		psp := sp.StartDetail("perturb")
		psp.AnnotateInt("groups", 2)
		psp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-trace inner-loop instrumentation allocates %.0f/op, want 0", allocs)
	}
}

func names(spans []telemetry.SpanJSON) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestMeasureSpanAnswersAnnotation: the measure span says whether the exact
// answers came from the answer memo or were computed.
func TestMeasureSpanAnswersAnnotation(t *testing.T) {
	w, x := tracedDomain(t, 6)
	vector.Freeze(x)
	cache := NewPlanCache(0)
	cfg := Config{
		Strategy: strategy.Fourier{}, Budgeting: OptimalBudget,
		Consistency: WeightedL2Consistency, Privacy: pureParams(0.9), Seed: 7,
	}
	for _, want := range []string{"computed", "memo"} {
		tr := telemetry.NewTrace(telemetry.NewRegistry(), "test-release", false)
		ctx := telemetry.ContextWithTrace(context.Background(), tr)
		if _, err := New(Options{Workers: 2, Cache: cache}).RunVector(ctx, w, x, cfg); err != nil {
			t.Fatal(err)
		}
		if got := tr.Tree().Spans[2].Attrs["answers"]; got != want {
			t.Errorf("measure answers=%q, want %q", got, want)
		}
	}
}
