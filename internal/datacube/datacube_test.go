package datacube

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/strategy"
	"repro/internal/vector"
)

// releaseTable vectorises a table and releases its cube through Release.
func releaseTable(t *dataset.Table, maxOrder int, o Options) (*Released, error) {
	x, err := t.Vector()
	if err != nil {
		return nil, err
	}
	return Release(context.Background(), t.Schema, vector.FromDense(x), maxOrder, o)
}

func testTable() *dataset.Table {
	s := dataset.MustSchema([]dataset.Attribute{
		{Name: "a", Cardinality: 3}, // 2 bits
		{Name: "b", Cardinality: 2}, // 1 bit
		{Name: "c", Cardinality: 4}, // 2 bits
	})
	rows := make([][]int, 0, 600)
	for i := 0; i < 600; i++ {
		rows = append(rows, []int{i % 3, (i / 3) % 2, (i / 6) % 4})
	}
	return &dataset.Table{Schema: s, Rows: rows}
}

func TestLatticeEnumeration(t *testing.T) {
	tab := testTable()
	l, err := NewLattice(tab.Schema, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 1 apex + 3 singles + 3 pairs.
	if len(l.Cuboids) != 7 {
		t.Fatalf("%d cuboids, want 7", len(l.Cuboids))
	}
	if len(l.Cuboids[0].Attrs) != 0 {
		t.Fatal("first cuboid must be the apex")
	}
	full, err := NewLattice(tab.Schema, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Cuboids) != 8 {
		t.Fatalf("full lattice has %d cuboids, want 8", len(full.Cuboids))
	}
	if _, err := NewLattice(tab.Schema, 4); err == nil {
		t.Fatal("order beyond attribute count accepted")
	}
}

func TestLatticeNavigation(t *testing.T) {
	tab := testTable()
	l, _ := NewLattice(tab.Schema, 2)
	i := l.Find(0, 2)
	if i < 0 {
		t.Fatal("cuboid (0,2) missing")
	}
	if j := l.Find(2, 0); j != i {
		t.Fatal("Find must be order-insensitive")
	}
	parents := l.Parents(i)
	if len(parents) != 2 {
		t.Fatalf("cuboid (0,2) has %d parents, want 2", len(parents))
	}
	apex := l.Find()
	children := l.Children(apex)
	if len(children) != 3 {
		t.Fatalf("apex has %d children, want 3", len(children))
	}
	if l.Find(0, 1, 2) != -1 {
		t.Fatal("order-3 cuboid should be absent from a max-order-2 lattice")
	}
}

func TestReleaseConsistentCube(t *testing.T) {
	tab := testTable()
	rel, err := releaseTable(tab, 2, Options{Epsilon: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.ConsistencyError(); got > 1e-6 {
		t.Fatalf("consistency error %v, want ~0", got)
	}
	// Apex ≈ row count.
	if math.Abs(rel.Total()-600) > 60 {
		t.Fatalf("total %v far from 600", rel.Total())
	}
}

func TestReleaseWorkloadStrategyAlsoConsistent(t *testing.T) {
	tab := testTable()
	rel, err := releaseTable(tab, 2, Options{Epsilon: 1, Seed: 4, Strategy: strategy.Workload{}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.ConsistencyError(); got > 1e-6 {
		t.Fatalf("consistency error %v, want ~0", got)
	}
}

func TestCuboidAccess(t *testing.T) {
	tab := testTable()
	rel, err := releaseTable(tab, 2, Options{Epsilon: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := rel.Cuboid(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 { // attribute a occupies 2 bits → 4 cells (3 valid)
		t.Fatalf("cuboid(a) has %d cells, want 4", len(cells))
	}
	// 200 rows per value of a.
	for v := 0; v < 3; v++ {
		if math.Abs(cells[v]-200) > 40 {
			t.Fatalf("a=%d count %v far from 200", v, cells[v])
		}
	}
	if _, err := rel.Cuboid(0, 1, 2); err == nil {
		t.Fatal("unreleased cuboid access should fail")
	}
}

func TestRollUpMatchesReleasedParent(t *testing.T) {
	tab := testTable()
	rel, err := releaseTable(tab, 2, Options{Epsilon: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	up, err := rel.RollUp([]int{0, 1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := rel.Cuboid(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if math.Abs(up[i]-direct[i]) > 1e-6 {
			t.Fatalf("roll-up cell %d = %v, released parent %v", i, up[i], direct[i])
		}
	}
	if _, err := rel.RollUp([]int{0}, []int{1}); err == nil {
		t.Fatal("roll-up to non-subset accepted")
	}
}

func TestSlice(t *testing.T) {
	tab := testTable()
	rel, err := releaseTable(tab, 2, Options{Epsilon: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	slice, rest, err := rel.Slice([]int{0, 1}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 1 || rest[0] != 0 {
		t.Fatalf("rest attrs = %v, want [0]", rest)
	}
	// b=0 holds rows with (i/3)%2==0 → half of each a-class = 100 each.
	for v := 0; v < 3; v++ {
		if math.Abs(slice[v]-100) > 30 {
			t.Fatalf("slice a=%d = %v, want ≈100", v, slice[v])
		}
	}
	if _, _, err := rel.Slice([]int{0, 1}, 2, 0); err == nil {
		t.Fatal("slice on absent attribute accepted")
	}
	if _, _, err := rel.Slice([]int{0, 1}, 1, 9); err == nil {
		t.Fatal("slice on out-of-range value accepted")
	}
}

func TestSliceComplementarity(t *testing.T) {
	// Slices over all values of the fixed attribute must sum to the parent
	// roll-up (mass preservation within the cuboid).
	tab := testTable()
	rel, err := releaseTable(tab, 2, Options{Epsilon: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]float64, 4)
	for v := 0; v < 2; v++ {
		slice, _, err := rel.Slice([]int{0, 1}, 1, v)
		if err != nil {
			t.Fatal(err)
		}
		for i := range slice {
			sum[i] += slice[i]
		}
	}
	parent, err := rel.Cuboid(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range parent {
		if math.Abs(sum[i]-parent[i]) > 1e-6 {
			t.Fatalf("slice sum %v != parent %v at %d", sum[i], parent[i], i)
		}
	}
}

func TestDice(t *testing.T) {
	tab := testTable()
	rel, err := releaseTable(tab, 1, Options{Epsilon: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	diced, err := rel.Dice([]int{2}, map[int]func(int) bool{
		2: func(v int) bool { return v < 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	full, _ := rel.Cuboid(2)
	if diced[0] != full[0] || diced[1] != full[1] {
		t.Fatal("dice must keep passing cells unchanged")
	}
	if diced[2] != 0 || diced[3] != 0 {
		t.Fatal("dice must zero failing cells")
	}
	if _, err := rel.Dice([]int{0, 1, 2}, nil); err == nil {
		t.Fatal("dice on unreleased cuboid accepted")
	}
}

func TestUniformVsOptimalCube(t *testing.T) {
	tab := testTable()
	uni, err := releaseTable(tab, 2, Options{Epsilon: 1, Seed: 10, UniformBudget: true})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := releaseTable(tab, 2, Options{Epsilon: 1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if opt.TotalVariance > uni.TotalVariance*(1+1e-9) {
		t.Fatalf("optimal cube variance %v worse than uniform %v", opt.TotalVariance, uni.TotalVariance)
	}
}

func TestApproxDPCube(t *testing.T) {
	tab := testTable()
	if _, err := releaseTable(tab, 1, Options{Epsilon: 1, Delta: 1e-6, Seed: 11}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCubeReleaseOrder2(b *testing.B) {
	tab := testTable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := releaseTable(tab, 2, Options{Epsilon: 1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSliceOnAttributeZero is the regression test for the found-flag
// confusion in Slice (the attribute index doubled as the flag): fixing
// attribute 0 must be accepted and produce the right reduced table. Each
// (a, b) cell of the test table holds 100 rows, so every slice on a should
// read ≈100 per remaining b value.
func TestSliceOnAttributeZero(t *testing.T) {
	tab := testTable()
	rel, err := releaseTable(tab, 2, Options{Epsilon: 10, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		slice, rest, err := rel.Slice([]int{0, 1}, 0, v)
		if err != nil {
			t.Fatalf("slice fixing attribute 0 at %d: %v", v, err)
		}
		if len(rest) != 1 || rest[0] != 1 {
			t.Fatalf("rest attrs = %v, want [1]", rest)
		}
		if len(slice) != 2 {
			t.Fatalf("slice has %d cells, want 2", len(slice))
		}
		for j, got := range slice {
			if math.Abs(got-100) > 30 {
				t.Fatalf("slice a=%d, b=%d = %v, want ≈100", v, j, got)
			}
		}
	}
	if _, _, err := rel.Slice([]int{0, 1}, 0, 3); err == nil {
		t.Fatal("value beyond attribute-0 cardinality accepted")
	}
}

// TestTotalReadsApexDirectly: Total must return the released apex cell, not
// a silent 0 — asserted against the apex cuboid lookup and plausibility.
func TestTotalReadsApexDirectly(t *testing.T) {
	tab := testTable()
	rel, err := releaseTable(tab, 1, Options{Epsilon: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	apex, err := rel.Cuboid()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Total() != apex[0] {
		t.Fatalf("Total %v != apex cell %v", rel.Total(), apex[0])
	}
	if rel.Total() == 0 || math.Abs(rel.Total()-600) > 60 {
		t.Fatalf("total %v implausible for 600 rows", rel.Total())
	}
}

// TestCubeParallelDeterminism: the public cube path is bit-identical across
// worker counts and unaffected by a plan cache.
func TestCubeParallelDeterminism(t *testing.T) {
	tab := testTable()
	ref, err := releaseTable(tab, 2, Options{Epsilon: 1, Seed: 14, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache := engine.NewPlanCache(0)
	for _, workers := range []int{2, 4} {
		got, err := releaseTable(tab, 2, Options{Epsilon: 1, Seed: 14, Workers: workers, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		for ci := range ref.Tables {
			for i := range ref.Tables[ci] {
				if math.Float64bits(ref.Tables[ci][i]) != math.Float64bits(got.Tables[ci][i]) {
					t.Fatalf("cuboid %d cell %d differs at %d workers", ci, i, workers)
				}
			}
		}
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats %+v, want 1 miss then 1 hit", st)
	}
}
