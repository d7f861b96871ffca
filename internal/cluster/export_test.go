package cluster

import "repro/internal/hcindex"

// MatrixProbes returns how many membership probes the µ matrix of the
// batch's n queries makes: a rank-y row probes the samples of every
// lower rank, in each direction.
func MatrixProbes(idx *hcindex.Index, n int) int {
	p := newMuPass(idx, n)
	probes := 0
	for d := range p.rank {
		for y := 0; y < n; y++ {
			probes += int(p.off[d*n+y] - p.off[d*n])
		}
	}
	return probes
}
