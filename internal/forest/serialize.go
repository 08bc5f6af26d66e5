package forest

import (
	"encoding/json"
	"fmt"
	"io"
)

// savedNode is the JSON form of a tree node, flattened pre-order.
type savedNode struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Label     bool    `json:"y,omitempty"`
	Pos       int     `json:"p,omitempty"`
	Neg       int     `json:"n,omitempty"`
	// Left and Right are indices into the node array; -1 for leaves.
	Left  int `json:"l"`
	Right int `json:"r"`
}

type savedTree struct {
	Nodes []savedNode `json:"nodes"`
}

type savedForest struct {
	// FeatureNames pins the feature order the model was trained with; Load
	// verifies it against the target extractor so a model is never applied
	// to a differently-shaped vector.
	FeatureNames []string `json:"feature_names"`
	// Config records the training hyperparameters so a reloaded forest
	// round-trips completely (older files without it load with a zero
	// config, as before).
	Config Config      `json:"config,omitempty"`
	Trees  []savedTree `json:"trees"`
}

// Save serializes the forest as JSON, recording featureNames so the model
// can later be applied to data featurized the same way (the paper's
// Example 3.1: a trained toy matcher keeps matching future toys).
//
// The wire format is unchanged from the pointer-tree era: nodes per tree
// in pre-order with tree-local child indices. The packed SoA layout stores
// each tree's span in exactly that order, so emission is a linear scan of
// the span with indices rebased by the span start, and the bytes written
// for a given forest are identical to what the old walker produced —
// runsvc journal snapshots replay across versions in both directions.
func (f *Forest) Save(w io.Writer, featureNames []string) error {
	out := savedForest{FeatureNames: featureNames, Config: f.cfg}
	for t := range f.roots {
		base := f.roots[t]
		end := int32(len(f.feature))
		if t+1 < len(f.roots) {
			end = f.roots[t+1]
		}
		st := savedTree{Nodes: make([]savedNode, 0, end-base)}
		for p := base; p < end; p++ {
			sn := savedNode{
				Feature: int(f.feature[p]),
				Pos:     int(f.pos[p]),
				Neg:     int(f.neg[p]),
				Left:    -1,
				Right:   -1,
			}
			if f.feature[p] < 0 {
				sn.Label = f.label[p]
			} else {
				sn.Threshold = f.threshold[p]
				sn.Left = int(f.left[p] - base)
				sn.Right = int(f.right[p] - base)
			}
			st.Nodes = append(st.Nodes, sn)
		}
		out.Trees = append(out.Trees, st)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Load deserializes a forest saved with Save — by this version or any
// earlier one; the wire format has not changed. featureNames, when non-nil,
// must match the names recorded at save time — applying a model to a
// different featurization silently produces garbage, so it is an error.
//
// Each tree decodes straight into the SoA layout by a pre-order walk over
// the saved child indices (loadTree), so a file whose nodes are not stored
// in pre-order is re-laid out rather than rejected.
func Load(r io.Reader, featureNames []string) (*Forest, error) {
	var in savedForest
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("forest: load: %w", err)
	}
	if featureNames != nil {
		if len(featureNames) != len(in.FeatureNames) {
			return nil, fmt.Errorf("forest: model has %d features, extractor %d",
				len(in.FeatureNames), len(featureNames))
		}
		for i := range featureNames {
			if featureNames[i] != in.FeatureNames[i] {
				return nil, fmt.Errorf("forest: feature %d is %q in the model but %q here",
					i, in.FeatureNames[i], featureNames[i])
			}
		}
	}
	parts := make([]soaTree, len(in.Trees))
	for ti, st := range in.Trees {
		if len(st.Nodes) == 0 {
			return nil, fmt.Errorf("forest: tree %d is empty", ti)
		}
		// A child index must point forward in the array: Save emits
		// pre-order, where children always follow their parent. This also
		// rules out cycles, which the walk below would chase forever.
		for i, sn := range st.Nodes {
			if sn.Feature < 0 {
				continue // leaf
			}
			if sn.Left <= i || sn.Left >= len(st.Nodes) ||
				sn.Right <= i || sn.Right >= len(st.Nodes) {
				return nil, fmt.Errorf("forest: tree %d node %d has invalid children", ti, i)
			}
		}
		parts[ti] = loadTree(st.Nodes)
	}
	f := &Forest{cfg: in.Config}
	f.soa = packTrees(parts)
	f.buildTables()
	return f, nil
}

// loadTree lays the saved nodes reachable from node 0 out in pre-order —
// the grower's emission order. Nodes no path reaches are dropped, and a
// subtree two parents share is emitted once under each.
func loadTree(nodes []savedNode) soaTree {
	var st soaTree
	var walk func(i int) int32
	walk = func(i int) int32 {
		sn := nodes[i]
		id := st.emit()
		st.pos[id] = int32(sn.Pos)
		st.neg[id] = int32(sn.Neg)
		if sn.Feature < 0 {
			st.feature[id] = -1
			st.label[id] = sn.Label
			return id
		}
		st.feature[id] = int32(sn.Feature)
		st.threshold[id] = sn.Threshold
		left := walk(sn.Left)
		right := walk(sn.Right)
		st.left[id], st.right[id] = left, right
		return id
	}
	walk(0)
	return st
}
