package forest

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Tests of the pointer-tree oracle itself (pointertree_test.go): the
// grower, its prediction walks and its rule extraction. The SoA
// production paths are pinned to this oracle, so its own behaviour is
// checked here.

// andData is a dataset a depth-2 tree can fit exactly: label =
// (x0>0.5 && x1>0.5).
func andData() (X [][]float64, y []bool) {
	for _, a := range []float64{0, 1} {
		for _, b := range []float64{0, 1} {
			for i := 0; i < 5; i++ {
				X = append(X, []float64{a, b})
				y = append(y, a > 0.5 && b > 0.5)
			}
		}
	}
	return
}

func TestGrowFitsSeparableData(t *testing.T) {
	X, y := andData()
	tr := Grow(X, y, nil, treeConfig{})
	for i := range X {
		if got := tr.Predict(X[i]); got != y[i] {
			t.Errorf("Predict(%v) = %v, want %v", X[i], got, y[i])
		}
	}
}

func TestGrowPureLeaf(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}}
	y := []bool{false, false, false}
	tr := Grow(X, y, nil, treeConfig{})
	if !tr.Root.IsLeaf() {
		t.Error("all-negative data should give a single leaf")
	}
	if tr.Root.Label {
		t.Error("leaf label should be negative")
	}
	if tr.NumLeaves() != 1 || tr.Depth() != 0 {
		t.Errorf("leaves=%d depth=%d", tr.NumLeaves(), tr.Depth())
	}
}

func TestGrowMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var X [][]float64
	var y []bool
	for i := 0; i < 200; i++ {
		v := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		X = append(X, v)
		y = append(y, v[0]+v[1]+v[2] > 1.5)
	}
	tr := Grow(X, y, nil, treeConfig{MaxDepth: 2})
	if d := tr.Depth(); d > 2 {
		t.Errorf("depth = %d, want <= 2", d)
	}
}

func TestGrowMinLeaf(t *testing.T) {
	X, y := andData()
	tr := Grow(X, y, nil, treeConfig{MinLeaf: 100})
	if !tr.Root.IsLeaf() {
		t.Error("MinLeaf larger than data should force a single leaf")
	}
}

func TestGrowWithIndices(t *testing.T) {
	X, y := andData()
	// Train on the negatives only.
	var idx []int
	for i, lbl := range y {
		if !lbl {
			idx = append(idx, i)
		}
	}
	tr := Grow(X, y, idx, treeConfig{})
	if !tr.Root.IsLeaf() || tr.Root.Label {
		t.Error("training on all-negative subset should give a negative leaf")
	}
}

func TestGrowDoesNotMutateIdx(t *testing.T) {
	X, y := andData()
	idx := []int{0, 5, 10, 15}
	orig := append([]int(nil), idx...)
	Grow(X, y, idx, treeConfig{})
	for i := range idx {
		if idx[i] != orig[i] {
			t.Fatal("Grow mutated the caller's index slice")
		}
	}
}

func TestPredictFuncLaziness(t *testing.T) {
	X, y := andData()
	tr := Grow(X, y, nil, treeConfig{})
	computed := map[int]bool{}
	got := tr.PredictFunc(func(f int) float64 {
		computed[f] = true
		return 0 // all-low vector: should route negative quickly
	})
	if got {
		t.Error("all-low vector predicted positive")
	}
	if len(computed) > tr.Depth() {
		t.Errorf("computed %d features, expected at most depth %d", len(computed), tr.Depth())
	}
}

func TestCountsRecorded(t *testing.T) {
	X, y := andData()
	tr := Grow(X, y, nil, treeConfig{})
	if tr.Root.Pos != 5 || tr.Root.Neg != 15 {
		t.Errorf("root counts = %d+/%d-, want 5+/15-", tr.Root.Pos, tr.Root.Neg)
	}
}

func TestTreeString(t *testing.T) {
	X, y := andData()
	tr := Grow(X, y, nil, treeConfig{})
	s := tr.String(func(i int) string { return []string{"f0", "f1"}[i] })
	if !strings.Contains(s, "<=") || !strings.Contains(s, "->") {
		t.Errorf("String() = %q missing expected structure", s)
	}
}

func TestRandomFeatureSubsetStillSplits(t *testing.T) {
	X, y := andData()
	tr := Grow(X, y, nil, treeConfig{FeaturesPerSplit: 1, Rand: rand.New(rand.NewSource(7))})
	// With both features needed and only one visible per node, the tree
	// may be imperfect but must be a valid tree.
	if tr.Root == nil {
		t.Fatal("nil root")
	}
}

func TestGiniOf(t *testing.T) {
	if giniOf(0, 0) != 0 {
		t.Error("empty gini should be 0")
	}
	if giniOf(5, 0) != 0 || giniOf(0, 5) != 0 {
		t.Error("pure gini should be 0")
	}
	if g := giniOf(5, 5); g != 0.5 {
		t.Errorf("balanced gini = %v, want 0.5", g)
	}
}

func TestPredictionConsistencyProperty(t *testing.T) {
	// Predict and PredictFunc agree for random vectors on a random tree.
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []bool
	for i := 0; i < 300; i++ {
		v := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		X = append(X, v)
		y = append(y, v[0] > 0.3 && v[2] < 0.7)
	}
	tr := Grow(X, y, nil, treeConfig{})
	f := func(a, b, c, d float64) bool {
		v := []float64{clamp01(a), clamp01(b), clamp01(c), clamp01(d)}
		return tr.Predict(v) == tr.PredictFunc(func(i int) float64 { return v[i] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clamp01(x float64) float64 {
	if x != x || x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func TestRulesPartitionInputSpace(t *testing.T) {
	// Every vector is covered by exactly one rule of a tree — the rules
	// are the root-to-leaf paths, which partition the space.
	X, y := andData()
	tr := Grow(X, y, nil, treeConfig{})
	rules := tr.Rules()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		v := []float64{rng.Float64() * 1.5, rng.Float64() * 1.5}
		covered := 0
		for _, r := range rules {
			if r.Matches(v) {
				covered++
				// The covering rule's conclusion is the tree's prediction.
				if r.Positive != tr.Predict(v) {
					t.Fatalf("rule conclusion disagrees with tree on %v", v)
				}
			}
		}
		if covered != 1 {
			t.Fatalf("vector %v covered by %d rules, want 1", v, covered)
		}
	}
}

func TestRulesLeafCounts(t *testing.T) {
	X, y := andData()
	tr := Grow(X, y, nil, treeConfig{})
	rules := tr.Rules()
	if len(rules) != tr.NumLeaves() {
		t.Errorf("got %d rules for %d leaves", len(rules), tr.NumLeaves())
	}
	totalPos, totalNeg := 0, 0
	for _, r := range rules {
		totalPos += r.LeafPos
		totalNeg += r.LeafNeg
	}
	if totalPos != 5 || totalNeg != 15 {
		t.Errorf("leaf counts sum to %d+/%d-, want 5+/15-", totalPos, totalNeg)
	}
}
