package deps

import (
	"slices"

	"clsacim/internal/sets"
)

// CSR is the compressed-sparse-row form of the set-dependency DAG over
// a flat set index space: sets are numbered layer-major in plan order
// (layer l's sets occupy [LayerOff[l], LayerOff[l+1])), and both edge
// directions are stored as flat offset/target/volume arrays. It is
// built once by Build and consumed by the Stage IV scheduler and the
// event-driven simulator, whose hot loops index these arrays instead of
// chasing per-set slices.
type CSR struct {
	// LayerOff[l] is the flat id of layer l's first set; the final
	// entry is the total set count.
	LayerOff []int32
	// SetLayer[i] is the layer owning flat set i.
	SetLayer []int32
	// Cycles[i] is the execution time of flat set i.
	Cycles []int64

	// Predecessor edges: flat set i depends on the sets
	// Pred[PredOff[i]:PredOff[i+1]], sorted ascending; PredVol carries
	// the per-edge read volume (SetRef.Vol).
	PredOff []int32
	Pred    []int32
	PredVol []int32

	// Successor edges (the exact reverse relation): flat set i is read
	// by Succ[SuccOff[i]:SuccOff[i+1]], sorted ascending, with the
	// matching volumes in SuccVol.
	SuccOff []int32
	Succ    []int32
	SuccVol []int32
}

// assembleCSR concatenates the per-layer edge streams (already sorted
// and deduplicated per set) into the flat arrays of c, reusing their
// capacity (a fresh CSR allocates each array once). The concatenation
// is positional in plan-layer order, so the result does not depend on
// the order the layers were built in; successors are filled by walking
// consumers in flat order, which sorts them. Memoized streams (a
// Builder's) are moved onto layerOff by rb; a one-shot Build passes
// nil.
func assembleCSR(plan *sets.Plan, layerOff []int32, results []layerEdges, rb *rebase, c *CSR) *CSR {
	numLayers := len(plan.Layers)
	total := int(layerOff[numLayers])
	setLayer := resize(c.SetLayer, total)
	cycles := resize(c.Cycles, total)
	for li := range plan.Layers {
		for si, set := range plan.Layers[li].Sets {
			i := layerOff[li] + int32(si)
			setLayer[i] = int32(li)
			cycles[i] = set.Cycles
		}
	}

	edges := 0
	for li := range results {
		edges += len(results[li].pred)
	}
	predOff := resize(c.PredOff, total+1)
	pred := resize(c.Pred, edges)[:0]
	predVol := resize(c.PredVol, edges)[:0]
	// succOff[p+1] first counts p's successors; the prefix sum below
	// turns the counts into offsets.
	succOff := resize(c.SuccOff, total+1)
	clear(succOff)
	id := 0
	for li := range results {
		le := &results[li]
		base := int32(len(pred))
		for si := 0; si+1 < len(le.setOff); si++ {
			predOff[id] = base + le.setOff[si]
			id++
		}
		if rb != nil {
			pred = rb.appendPred(pred, le, li, layerOff)
		} else {
			pred = append(pred, le.pred...)
		}
		predVol = append(predVol, le.vol...)
		for _, p := range pred[base:] {
			succOff[p+1]++
		}
	}
	predOff[total] = int32(len(pred))

	for i := 1; i <= total; i++ {
		succOff[i] += succOff[i-1]
	}
	succ := resize(c.Succ, edges)
	succVol := resize(c.SuccVol, edges)
	// succOff[p] serves as p's write cursor, ending at p+1's offset;
	// shifting the array back by one restores the offsets.
	for i := int32(0); i < int32(total); i++ {
		for e := predOff[i]; e < predOff[i+1]; e++ {
			p := pred[e]
			o := succOff[p]
			succ[o] = i
			succVol[o] = predVol[e]
			succOff[p] = o + 1
		}
	}
	copy(succOff[1:], succOff[:total])
	succOff[0] = 0
	*c = CSR{LayerOff: layerOff, SetLayer: setLayer, Cycles: cycles,
		PredOff: predOff, Pred: pred, PredVol: predVol,
		SuccOff: succOff, Succ: succ, SuccVol: succVol}
	return c
}

// resize returns s with length n, reusing its backing array when large
// enough (contents are unspecified; callers overwrite or clear).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ID returns the flat id of set si of layer li.
func (c *CSR) ID(li, si int) int32 { return c.LayerOff[li] + int32(si) }

// Set resolves a flat id back to its (layer, set) pair.
func (c *CSR) Set(id int32) (li, si int) {
	l := c.SetLayer[id]
	return int(l), int(id - c.LayerOff[l])
}

// NumSets returns the total set count.
func (c *CSR) NumSets() int { return len(c.SetLayer) }

// NumEdges returns the total dependency-edge count.
func (c *CSR) NumEdges() int { return len(c.Pred) }

// NumLayers returns the layer count.
func (c *CSR) NumLayers() int { return len(c.LayerOff) - 1 }

// Equal reports whether two CSR graphs are identical array for array —
// the determinism contract of Build across worker counts and runs.
func (c *CSR) Equal(o *CSR) bool {
	return slices.Equal(c.LayerOff, o.LayerOff) &&
		slices.Equal(c.SetLayer, o.SetLayer) &&
		slices.Equal(c.Cycles, o.Cycles) &&
		slices.Equal(c.PredOff, o.PredOff) &&
		slices.Equal(c.Pred, o.Pred) &&
		slices.Equal(c.PredVol, o.PredVol) &&
		slices.Equal(c.SuccOff, o.SuccOff) &&
		slices.Equal(c.Succ, o.Succ) &&
		slices.Equal(c.SuccVol, o.SuccVol)
}
