// Package spatial implements the spatial-only aggregation baseline
// (paper §III.D, the Viva technique [13]): the optimal hierarchy-consistent
// partition of the time-integrated trace S×{T}, computed by a depth-first
// search of the hierarchy in O(|S|) pIC evaluations.
//
// Each microscopic individual is one resource with its time-integrated
// state proportions ρ_x({s}, T); each candidate aggregate is a hierarchy
// node. On every branch the algorithm keeps the node if its own pIC beats
// the summed optimal pIC of its children (ties favor aggregation).
package spatial

import (
	"fmt"
	"math"

	"ocelotl/internal/hierarchy"
	"ocelotl/internal/measures"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/partition"
)

// Aggregator precomputes per-node sums for the time-integrated trace.
type Aggregator struct {
	Model *microscopic.Model
	X     int

	// Per node (indexed by hierarchy node ID) and state:
	sumD   [][]float64 // Σ_{s∈S_k} Σ_t d_x(s,t)
	sumRho [][]float64 // Σ_{s∈S_k} ρ_x({s},T)
	sumRL  [][]float64 // Σ_{s∈S_k} ρ·log₂ρ
	gain   []float64   // per-node gain, summed over states
	loss   []float64   // per-node loss
	dur    float64     // Σ_t d(t)
}

// New builds the per-node sums bottom-up in O(|X|·|H(S)|) after an
// O(|X|·|S|·|T|) integration pass.
func New(m *microscopic.Model) *Aggregator {
	a := &Aggregator{
		Model:  m,
		X:      m.NumStates(),
		sumD:   make([][]float64, m.H.NumNodes()),
		sumRho: make([][]float64, m.H.NumNodes()),
		sumRL:  make([][]float64, m.H.NumNodes()),
		gain:   make([]float64, m.H.NumNodes()),
		loss:   make([]float64, m.H.NumNodes()),
	}
	for _, d := range m.SliceDur {
		a.dur += d
	}
	a.build(m.H.Root)
	return a
}

func (a *Aggregator) build(n *hierarchy.Node) {
	id := n.ID
	a.sumD[id] = make([]float64, a.X)
	a.sumRho[id] = make([]float64, a.X)
	a.sumRL[id] = make([]float64, a.X)
	if n.IsLeaf() {
		prof := a.Model.ResourceProfile(n.Lo)
		T := a.Model.NumSlices()
		for x := 0; x < a.X; x++ {
			var d float64
			row := a.Model.StateRow(x)
			for t := 0; t < T; t++ {
				d += row[n.Lo*T+t]
			}
			a.sumD[id][x] = d
			a.sumRho[id][x] = prof[x]
			a.sumRL[id][x] = measures.PLogP(prof[x])
		}
	} else {
		for _, c := range n.Children {
			a.build(c)
			for x := 0; x < a.X; x++ {
				a.sumD[id][x] += a.sumD[c.ID][x]
				a.sumRho[id][x] += a.sumRho[c.ID][x]
				a.sumRL[id][x] += a.sumRL[c.ID][x]
			}
		}
	}
	den := float64(n.Size()) * a.dur
	for x := 0; x < a.X; x++ {
		g, l := measures.GainLoss(a.sumD[id][x], a.sumRho[id][x], a.sumRL[id][x], den)
		a.gain[id] += g
		a.loss[id] += l
	}
}

// NodeGainLoss returns the time-integrated gain and loss of aggregating
// node n (relative to its per-resource microscopic description).
func (a *Aggregator) NodeGainLoss(n *hierarchy.Node) (gain, loss float64) {
	return a.gain[n.ID], a.loss[n.ID]
}

// Run returns the optimal hierarchy-consistent partition at ratio p. The
// partition's areas all span the full time window [0, |T|-1].
func (a *Aggregator) Run(p float64) (*partition.Partition, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("spatial: p = %v out of [0,1]", p)
	}
	pt := &partition.Partition{P: p}
	a.optimize(a.Model.H.Root, p, pt)
	pt.PIC = measures.PIC(p, pt.Gain, pt.Loss)
	pt.Sort()
	return pt, nil
}

// optimize returns the best pIC achievable for the subtree of n, appending
// the chosen aggregates to pt. Ties keep the aggregate (no cut), matching
// Algorithm 1's strict comparison.
func (a *Aggregator) optimize(n *hierarchy.Node, p float64, pt *partition.Partition) float64 {
	own := measures.PIC(p, a.gain[n.ID], a.loss[n.ID])
	if n.IsLeaf() {
		pt.Areas = append(pt.Areas, a.fullArea(n))
		pt.Gain += a.gain[n.ID]
		pt.Loss += a.loss[n.ID]
		return own
	}
	var sub partition.Partition
	var childSum float64
	for _, c := range n.Children {
		childSum += a.optimize(c, p, &sub)
	}
	if measures.Improves(childSum, own) {
		pt.Areas = append(pt.Areas, sub.Areas...)
		pt.Gain += sub.Gain
		pt.Loss += sub.Loss
		return childSum
	}
	pt.Areas = append(pt.Areas, a.fullArea(n))
	pt.Gain += a.gain[n.ID]
	pt.Loss += a.loss[n.ID]
	return own
}

func (a *Aggregator) fullArea(n *hierarchy.Node) partition.Area {
	return partition.Area{Node: n, I: 0, J: a.Model.NumSlices() - 1}
}

// Nodes returns the spatial parts (hierarchy nodes) of the optimal
// partition at p, for callers that only need the spatial decomposition.
func (a *Aggregator) Nodes(p float64) ([]*hierarchy.Node, error) {
	pt, err := a.Run(p)
	if err != nil {
		return nil, err
	}
	out := make([]*hierarchy.Node, len(pt.Areas))
	for i, ar := range pt.Areas {
		out[i] = ar.Node
	}
	return out, nil
}
