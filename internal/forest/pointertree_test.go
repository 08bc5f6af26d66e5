package forest

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"github.com/corleone-em/corleone/internal/tree"
)

// The pointer-tree reference implementation. Before the structure-of-arrays
// rewrite every forest was a slice of these heap-node trees, grown by Grow
// and walked node by node. Production no longer uses them; they stay here
// as the serial oracle the SoA grower, scorer and loader are pinned
// against (TestTrainParallelMatchesSerial, TestScoringParallelMatchesSerial,
// TestLoadRelayoutMatchesOracle) and as the forest_train bench baseline
// (BenchmarkTrainSerial).

// treeConfig controls pointer-tree growth.
type treeConfig struct {
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum number of training examples per leaf
	// (default 1).
	MinLeaf int
	// FeaturesPerSplit is the paper's m = log2(n)+1 random features
	// considered at each node; 0 means all features.
	FeaturesPerSplit int
	// Rand drives the per-node feature subsampling. Must be non-nil when
	// FeaturesPerSplit > 0.
	Rand *rand.Rand
}

// Node is one tree node. Leaves have Feature == -1.
type Node struct {
	// Feature is the feature index tested at an internal node, -1 at a leaf.
	Feature int
	// Threshold routes vectors: value <= Threshold goes Left, else Right.
	Threshold float64
	Left      *Node
	Right     *Node
	// Label is the leaf prediction (true = match).
	Label bool
	// Pos and Neg are the training example counts that reached this node.
	Pos, Neg int
}

// IsLeaf reports whether n is a leaf.
func (n *Node) IsLeaf() bool { return n.Feature < 0 }

// Tree is a grown decision tree.
type Tree struct {
	Root *Node
}

// Grow trains a tree on the rows of X selected by idx (labels in y). X rows
// are feature vectors; idx lets the forest pass bootstrap samples without
// copying. If idx is nil, all rows are used.
func Grow(X [][]float64, y []bool, idx []int, cfg treeConfig) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	if idx == nil {
		idx = make([]int, len(X))
		for i := range idx {
			idx[i] = i
		}
	}
	own := make([]int, len(idx))
	copy(own, idx)
	g := &treeGrower{X: X, y: y, cfg: cfg}
	return &Tree{Root: g.grow(own, 0)}
}

type treeGrower struct {
	X   [][]float64
	y   []bool
	cfg treeConfig
}

func (g *treeGrower) counts(idx []int) (pos, neg int) {
	for _, i := range idx {
		if g.y[i] {
			pos++
		} else {
			neg++
		}
	}
	return
}

func (g *treeGrower) grow(idx []int, depth int) *Node {
	pos, neg := g.counts(idx)
	leaf := func() *Node {
		return &Node{Feature: -1, Label: pos > neg, Pos: pos, Neg: neg}
	}
	if pos == 0 || neg == 0 || len(idx) < 2*g.cfg.MinLeaf ||
		(g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth) {
		return leaf()
	}
	feat, thr, ok := g.bestSplit(idx, pos, neg)
	if !ok {
		return leaf()
	}
	var left, right []int
	for _, i := range idx {
		if g.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < g.cfg.MinLeaf || len(right) < g.cfg.MinLeaf {
		return leaf()
	}
	return &Node{
		Feature:   feat,
		Threshold: thr,
		Left:      g.grow(left, depth+1),
		Right:     g.grow(right, depth+1),
		Pos:       pos,
		Neg:       neg,
	}
}

// bestSplit searches a random subset of features for the split with the
// lowest weighted Gini impurity. Returns ok=false when no split separates
// the examples.
func (g *treeGrower) bestSplit(idx []int, pos, neg int) (feat int, thr float64, ok bool) {
	nf := len(g.X[0])
	var candidates []int
	if g.cfg.FeaturesPerSplit > 0 && g.cfg.FeaturesPerSplit < nf {
		seen := make(map[int]bool, g.cfg.FeaturesPerSplit)
		for len(seen) < g.cfg.FeaturesPerSplit {
			seen[g.cfg.Rand.Intn(nf)] = true
		}
		for f := range seen {
			candidates = append(candidates, f)
		}
		sort.Ints(candidates)
	} else {
		candidates = make([]int, nf)
		for f := range candidates {
			candidates[f] = f
		}
	}

	type vl struct {
		v   float64
		pos bool
	}
	bestGini := math.Inf(1)
	total := float64(len(idx))
	vals := make([]vl, 0, len(idx))
	for _, f := range candidates {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, vl{v: g.X[i][f], pos: g.y[i]})
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		if vals[0].v == vals[len(vals)-1].v {
			continue // constant feature
		}
		lp, ln := 0, 0
		for k := 0; k < len(vals)-1; k++ {
			if vals[k].pos {
				lp++
			} else {
				ln++
			}
			if vals[k].v == vals[k+1].v {
				continue
			}
			rp, rn := pos-lp, neg-ln
			nl, nr := float64(lp+ln), float64(rp+rn)
			gini := nl/total*giniOf(lp, ln) + nr/total*giniOf(rp, rn)
			if gini < bestGini {
				bestGini = gini
				feat = f
				thr = (vals[k].v + vals[k+1].v) / 2
				ok = true
			}
		}
	}
	// Reject splits that do not improve on the parent impurity.
	if ok && bestGini >= giniOf(pos, neg)-1e-12 {
		return 0, 0, false
	}
	return feat, thr, ok
}

func giniOf(pos, neg int) float64 {
	n := float64(pos + neg)
	if n == 0 {
		return 0
	}
	p := float64(pos) / n
	return 2 * p * (1 - p)
}

// Predict routes v down the tree and returns the leaf label.
func (t *Tree) Predict(v []float64) bool {
	n := t.Root
	for !n.IsLeaf() {
		if v[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Label
}

// PredictFunc routes using a feature accessor instead of a full vector,
// computing only the features actually visited.
func (t *Tree) PredictFunc(get func(feature int) float64) bool {
	n := t.Root
	for !n.IsLeaf() {
		if get(n.Feature) <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Label
}

// NumLeaves counts the leaves.
func (t *Tree) NumLeaves() int { return countLeaves(t.Root) }

func countLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

// Depth returns the maximum root-to-leaf depth (a lone leaf has depth 0).
func (t *Tree) Depth() int { return depthOf(t.Root) }

func depthOf(n *Node) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	l, r := depthOf(n.Left), depthOf(n.Right)
	if r > l {
		l = r
	}
	return l + 1
}

// String renders the tree with the given feature-name resolver, in the
// indented style of the paper's Figure 2.
func (t *Tree) String(name func(int) string) string {
	var b strings.Builder
	renderPointerNode(&b, t.Root, name, 0)
	return b.String()
}

func renderPointerNode(b *strings.Builder, n *Node, name func(int) string, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.IsLeaf() {
		lbl := "No"
		if n.Label {
			lbl = "Yes"
		}
		fmt.Fprintf(b, "%s-> %s (%d+/%d-)\n", indent, lbl, n.Pos, n.Neg)
		return
	}
	fmt.Fprintf(b, "%s[%s <= %.4g]\n", indent, name(n.Feature), n.Threshold)
	renderPointerNode(b, n.Left, name, depth+1)
	renderPointerNode(b, n.Right, name, depth+1)
}

// Rules extracts every root-to-leaf decision rule from the tree. Each
// returned rule's predicate list follows the path order from root to leaf.
func (t *Tree) Rules() []tree.Rule {
	var out []tree.Rule
	var walk func(n *Node, path []tree.Predicate)
	walk = func(n *Node, path []tree.Predicate) {
		if n.IsLeaf() {
			preds := make([]tree.Predicate, len(path))
			copy(preds, path)
			out = append(out, tree.Rule{
				Preds:    preds,
				Positive: n.Label,
				LeafPos:  n.Pos,
				LeafNeg:  n.Neg,
			})
			return
		}
		walk(n.Left, append(path, tree.Predicate{Feature: n.Feature, Op: tree.LE, Threshold: n.Threshold}))
		walk(n.Right, append(path, tree.Predicate{Feature: n.Feature, Op: tree.GT, Threshold: n.Threshold}))
	}
	walk(t.Root, nil)
	return out
}

// flattenTree lays a pointer tree out in pre-order — the same emission
// order the grower uses — so a flattened reference forest is structurally
// identical to a directly grown one.
func flattenTree(root *Node) soaTree {
	var st soaTree
	var walk func(n *Node) int32
	walk = func(n *Node) int32 {
		id := st.emit()
		st.pos[id] = int32(n.Pos)
		st.neg[id] = int32(n.Neg)
		if n.IsLeaf() {
			st.feature[id] = -1
			st.label[id] = n.Label
			return id
		}
		st.feature[id] = int32(n.Feature)
		st.threshold[id] = n.Threshold
		st.left[id] = walk(n.Left)
		st.right[id] = walk(n.Right)
		return id
	}
	walk(root)
	return st
}

// fromTrees builds a packed forest from pointer trees.
func fromTrees(trees []*Tree, cfg Config) *Forest {
	parts := make([]soaTree, len(trees))
	for i, t := range trees {
		parts[i] = flattenTree(t.Root)
	}
	f := &Forest{cfg: cfg}
	f.soa = packTrees(parts)
	f.buildTables()
	return f
}

// loadPointerTrees is the pointer-tree decoder Load replaced: it links the
// saved child indices into heap nodes and packs them with fromTrees. It
// skips Load's feature-name check; the layout tests feed it the same
// bytes Load already accepted.
func loadPointerTrees(r io.Reader) (*Forest, error) {
	var in savedForest
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, err
	}
	trees := make([]*Tree, 0, len(in.Trees))
	for _, st := range in.Trees {
		nodes := make([]*Node, len(st.Nodes))
		for i, sn := range st.Nodes {
			nodes[i] = &Node{Feature: sn.Feature, Threshold: sn.Threshold,
				Label: sn.Label, Pos: sn.Pos, Neg: sn.Neg}
		}
		for i, sn := range st.Nodes {
			if sn.Feature >= 0 {
				nodes[i].Left = nodes[sn.Left]
				nodes[i].Right = nodes[sn.Right]
			}
		}
		trees = append(trees, &Tree{Root: nodes[0]})
	}
	return fromTrees(trees, in.Config), nil
}
