package microscopic

import "fmt"

// MergePairs derives the model one resolution level up: the same window
// re-sliced at factor× the slice width (factor a power of two), with each
// coarse cell d_x(s,t') the sum of its factor fine cells in ascending
// slice order. This is the canonical coarse fill of the multi-resolution
// ladder: core.Input.CoarsenContext reproduces exactly these floats from
// its slice rows, which is what makes "coarsen a fine Input" and "an input
// pass over the merged model" bit-identical (see core's coarsen property
// tests).
//
// The merged d values are the exact event times of the window re-binned,
// so the coarse model is a faithful microscopic model of the same trace
// region; its floats may differ in the last ulp from an independent
// event-index fill at the coarse grid (events spanning a fine boundary
// split-then-sum there), which is why the serving layer labels
// merge-derived overview responses as previews rather than caching them
// under window keys.
//
// The model keeps the reslicer back-pointer, so the coarse model supports
// the same Pan/Zoom derivations as any index-built one.
func (m *Model) MergePairs(factor int) (*Model, error) {
	sl, err := m.Slicer.CoarsenGrid(factor)
	if err != nil {
		return nil, fmt.Errorf("microscopic: merge pairs: %w", err)
	}
	nm := NewEmpty(m.H, sl, m.States)
	nm.resl = m.resl
	T, cT := m.Slicer.N, sl.N
	for x := range m.dx {
		src, dst := m.dx[x], nm.dx[x]
		for s := 0; s < m.NumResources(); s++ {
			for t := 0; t < cT; t++ {
				sum := 0.0
				for i := 0; i < factor; i++ {
					sum += src[s*T+t*factor+i]
				}
				dst[s*cT+t] = sum
			}
		}
	}
	return nm, nil
}
