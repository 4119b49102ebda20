package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/noise"
)

func TestSchemaWorkloadsShape(t *testing.T) {
	ws := SchemaWorkloads(dataset.NLTCSSchema())
	if len(ws.Names) != 6 {
		t.Fatalf("%d workloads, want 6", len(ws.Names))
	}
	sizes := map[string]int{
		"Q1": 16, "Q1*": 16 + 60, "Q1a": 16 + 15,
		"Q2": 120, "Q2*": 120 + 280, "Q2a": 120 + 105,
	}
	for name, want := range sizes {
		if got := len(ws.ByName[name].Marginals); got != want {
			t.Errorf("%s has %d marginals, want %d", name, got, want)
		}
	}
}

func TestIntroExampleNumbers(t *testing.T) {
	uniform, nonUniform, gls, err := IntroExample()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(uniform-48) > 1e-9 {
		t.Errorf("uniform = %v, want 48", uniform)
	}
	if math.Abs(nonUniform-46.16) > 0.02 {
		t.Errorf("non-uniform = %v, want ≈46.17", nonUniform)
	}
	if gls > 34.62 || gls < 20 {
		t.Errorf("GLS = %v, want in (20, 34.62]", gls)
	}
	if !(gls < nonUniform && nonUniform < uniform) {
		t.Errorf("ordering violated: %v, %v, %v", gls, nonUniform, uniform)
	}
}

func TestAccuracySweepSmall(t *testing.T) {
	// A reduced NLTCS-like instance keeps the test fast while exercising
	// the full sweep machinery.
	tab := dataset.SyntheticBinary(1, 8, 3000)
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	ws := SchemaWorkloads(tab.Schema)
	points, err := AccuracySweep(context.Background(), "test", "Q1", ws.ByName["Q1"], x,
		Methods(true), []float64{0.5, 1.0}, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 7*2 {
		t.Fatalf("%d points, want 14", len(points))
	}
	byKey := map[string]float64{}
	for _, p := range points {
		if p.RelError <= 0 || math.IsNaN(p.RelError) || math.IsInf(p.RelError, 0) {
			t.Fatalf("bad relative error %v for %s ε=%v", p.RelError, p.Method, p.Epsilon)
		}
		byKey[p.Method+"@"+formatEps(p.Epsilon)] = p.RelError
	}
	// Error decreases with ε for every method.
	for _, m := range []string{"I", "Q", "Q+", "F", "F+", "C", "C+"} {
		if byKey[m+"@0.5"] < byKey[m+"@1.0"] {
			t.Errorf("%s: error at ε=0.5 (%v) below ε=1 (%v)", m, byKey[m+"@0.5"], byKey[m+"@1.0"])
		}
	}
}

func formatEps(e float64) string {
	if e == 0.5 {
		return "0.5"
	}
	return "1.0"
}

// TestNonUniformBeatsUniformOnAverage is the paper's headline claim on a
// small instance: the "+" variants beat their uniform counterparts on
// expected error (seed-averaged).
func TestNonUniformBeatsUniformOnAverage(t *testing.T) {
	tab := dataset.SyntheticBinary(2, 8, 3000)
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	ws := SchemaWorkloads(tab.Schema)
	points, err := AccuracySweep(context.Background(), "test", "Q1*", ws.ByName["Q1*"], x,
		Methods(false), []float64{0.5}, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	get := func(m string) float64 {
		for _, p := range points {
			if p.Method == m {
				return p.RelError
			}
		}
		t.Fatalf("method %s missing", m)
		return 0
	}
	if get("Q+") > get("Q")*1.02 {
		t.Errorf("Q+ (%v) should beat Q (%v) on Q1*", get("Q+"), get("Q"))
	}
	if get("F+") > get("F")*1.02 {
		t.Errorf("F+ (%v) should beat F (%v) on Q1*", get("F+"), get("F"))
	}
}

func TestTimingSweepShape(t *testing.T) {
	tab := dataset.SyntheticBinary(3, 8, 1000)
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	ws := SchemaWorkloads(tab.Schema)
	times, err := TimingSweep(context.Background(), "test", ws, x, Methods(false), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 6*5 {
		t.Fatalf("%d timing rows, want 30", len(times))
	}
	for _, tp := range times {
		if tp.Seconds < 0 {
			t.Fatalf("negative time %v", tp.Seconds)
		}
	}
}

func TestTable1RowsShapeAndOrdering(t *testing.T) {
	p := noise.Params{Type: noise.PureDP, Epsilon: 1, Neighbor: noise.AddRemove}
	rows, err := Table1Rows(context.Background(), []int{8, 10}, []int{1, 2}, p, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.FourierNonUniform > r.FourierUniform*(1+1e-9) {
			t.Errorf("d=%d k=%d: non-uniform bound above uniform", r.D, r.K)
		}
		if r.Lower > r.FourierNonUniform {
			t.Errorf("d=%d k=%d: lower bound above non-uniform upper bound", r.D, r.K)
		}
		for name, v := range map[string]float64{
			"base": r.MeasuredBase, "marg": r.MeasuredMarginals,
			"fu": r.MeasuredFourierUniform, "fnu": r.MeasuredFourierNonUniform,
		} {
			if v <= 0 || math.IsNaN(v) {
				t.Errorf("d=%d k=%d: measured %s = %v", r.D, r.K, name, v)
			}
		}
		// Shape check: non-uniform Fourier must not be worse than uniform
		// Fourier empirically (allow 10% noise).
		if r.MeasuredFourierNonUniform > r.MeasuredFourierUniform*1.1 {
			t.Errorf("d=%d k=%d: measured F+ %v worse than F %v", r.D, r.K,
				r.MeasuredFourierNonUniform, r.MeasuredFourierUniform)
		}
	}
}

func TestCSVWriters(t *testing.T) {
	var sbP, sbT, sbB strings.Builder
	points := []Point{{Dataset: "d", Workload: "Q1", Method: "F+", Epsilon: 0.5, RelError: 0.01}}
	if err := WritePointsCSV(&sbP, points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sbP.String(), "F+,0.500,0.01") {
		t.Fatalf("points csv = %q", sbP.String())
	}
	times := []TimePoint{{Dataset: "d", Workload: "Q1", Method: "C", Seconds: 1.25}}
	if err := WriteTimesCSV(&sbT, times); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sbT.String(), "C,1.250000") {
		t.Fatalf("times csv = %q", sbT.String())
	}
	rows := []BoundRow{{D: 8, K: 1, Base: 1, Marginals: 2, FourierUniform: 3, FourierNonUniform: 4, Lower: 5}}
	if err := WriteBoundsCSV(&sbB, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sbB.String(), "8,1,") {
		t.Fatalf("bounds csv = %q", sbB.String())
	}
}

// TestApproxDPResultsSimilar checks the paper's omitted-results claim: under
// (ε,δ)-DP with Gaussian noise, the method ordering of Figures 4/5 holds —
// non-uniform beats uniform per strategy and errors decrease with ε.
func TestApproxDPResultsSimilar(t *testing.T) {
	tab := dataset.SyntheticBinary(4, 8, 3000)
	x, err := tab.Vector()
	if err != nil {
		t.Fatal(err)
	}
	ws := SchemaWorkloads(tab.Schema)
	base := noise.Params{Type: noise.ApproxDP, Delta: 1e-6, Neighbor: noise.AddRemove}
	points, err := AccuracySweepParams(context.Background(), "test", "Q1*", ws.ByName["Q1*"], x,
		Methods(false), base, []float64{0.3, 1.0}, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	get := func(m string, eps float64) float64 {
		for _, p := range points {
			if p.Method == m && p.Epsilon == eps {
				return p.RelError
			}
		}
		t.Fatalf("missing %s@%v", m, eps)
		return 0
	}
	for _, m := range []string{"I", "Q", "Q+", "F", "F+"} {
		if get(m, 0.3) <= get(m, 1.0) {
			t.Errorf("%s: error did not decrease with ε (%v vs %v)", m, get(m, 0.3), get(m, 1.0))
		}
	}
	if get("F+", 1.0) > get("F", 1.0)*1.05 {
		t.Errorf("(ε,δ): F+ (%v) should not lose to F (%v)", get("F+", 1.0), get("F", 1.0))
	}
	if get("Q+", 1.0) > get("Q", 1.0)*1.05 {
		t.Errorf("(ε,δ): Q+ (%v) should not lose to Q (%v)", get("Q+", 1.0), get("Q", 1.0))
	}
}
