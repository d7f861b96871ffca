// Package datasets is the registry of the twelve synthetic stand-ins for
// the paper's real-world graphs (Table I). The originals — SNAP, LAW and
// NetworkRepository downloads up to 1.8 billion edges — are not
// redistributable nor tractable offline, so each stand-in is generated
// by the community/power-law hybrid generator at a reduced scale: local
// preferential attachment reproduces the heavy-tailed degree skew of the
// originals, while community locality bounds k-hop ball growth so that
// unrelated queries stay dissimilar — the precondition for the Exp-1
// similarity sweep that billion-scale originals satisfy by sheer size.
// Relative density ordering across datasets follows Table I (absolute
// densities are compressed — enumeration cost grows exponentially in
// davg·k, and the shapes the experiments reproduce depend on the
// ordering, not the magnitudes). docs/ARCHITECTURE.md ("Test
// scaffolding") records the substitution rationale.
package datasets

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Spec describes one stand-in dataset.
type Spec struct {
	// Code is the two-letter label of Table I (EP, SL, …).
	Code string
	// Name is the full dataset name of Table I.
	Name string
	// PaperV, PaperE, PaperDavg and PaperDmax are the statistics the
	// paper reports for the original graph.
	PaperV, PaperE int64
	PaperDavg      float64
	PaperDmax      int64
	// Build generates the stand-in at the given scale factor (1.0 is
	// the default size; Exp-5 samples it down, stress runs scale up).
	Build func(scale float64) *graph.Graph
}

// spec constructs the generator closures. Every stand-in uses the
// community/power-law hybrid generator: commSize bounds k-hop ball
// growth so that unrelated queries stay dissimilar (the precondition of
// the Exp-1 similarity sweep on reduced-scale graphs) while the local
// preferential attachment preserves the dmax skew. outDeg and commSize
// encode the relative density ordering of Table I.
func spec(code, name string, pv, pe int64, pdavg float64, pdmax int64, n, commSize, outDeg int, pIn float64, seed int64) Spec {
	return Spec{
		Code: code, Name: name,
		PaperV: pv, PaperE: pe, PaperDavg: pdavg, PaperDmax: pdmax,
		Build: func(scale float64) *graph.Graph {
			sn := int(float64(n) * scale)
			if sn < 16 {
				sn = 16
			}
			cs := commSize
			if cs > sn {
				cs = sn
			}
			return graph.GenCommunityPowerLaw(sn, cs, outDeg, pIn, seed)
		},
	}
}

// All returns the twelve stand-ins in Table I order. Generation is lazy:
// call Build when the graph is needed.
func All() []Spec {
	return []Spec{
		spec("EP", "Epinions", 75_000, 508_000, 13.4, 3_079, 5_000, 120, 6, 0.975, 101),
		spec("SL", "Slashdot", 82_000, 948_000, 21.2, 5_062, 5_000, 120, 8, 0.975, 102),
		spec("BK", "Baidu-baike", 416_000, 3_000_000, 5.0, 98_173, 12_000, 150, 2, 0.95, 103),
		spec("WT", "WikiTalk", 2_000_000, 5_000_000, 5.0, 1_242, 16_000, 150, 2, 0.95, 104),
		spec("BS", "BerkStan", 685_000, 7_000_000, 22.2, 84_290, 8_000, 180, 9, 0.985, 105),
		spec("SK", "Skitter", 1_600_000, 11_000_000, 13.1, 35_547, 10_000, 150, 6, 0.975, 106),
		spec("UK", "Web-uk-2005", 130_000, 11_700_000, 181.2, 850, 12_000, 150, 13, 0.995, 107),
		spec("DA", "Rec-dating", 169_000, 17_000_000, 205.7, 33_411, 13_000, 150, 14, 0.995, 108),
		spec("PO", "Pokec", 1_600_000, 31_000_000, 37.5, 20_518, 10_000, 180, 10, 0.985, 109),
		spec("LJ", "LiveJournal", 4_000_000, 69_000_000, 17.9, 20_333, 16_000, 160, 8, 0.98, 110),
		spec("TW", "Twitter-2010", 42_000_000, 1_460_000_000, 70.5, 2_997_487, 30_000, 200, 11, 0.985, 111),
		spec("FS", "Friendster", 65_000_000, 1_810_000_000, 27.5, 5_214, 36_000, 200, 8, 0.98, 112),
	}
}

// Codes returns the dataset codes in Table I order.
func Codes() []string {
	specs := All()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Code
	}
	return out
}

// ByCode returns the spec with the given code.
func ByCode(code string) (Spec, error) {
	for _, s := range All() {
		if s.Code == code {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datasets: unknown code %q (known: %v)", code, Codes())
}

// Select resolves a comma-free list of codes, or all datasets when the
// list is empty. The order follows Table I regardless of input order.
func Select(codes []string) ([]Spec, error) {
	if len(codes) == 0 {
		return All(), nil
	}
	want := make(map[string]bool, len(codes))
	for _, c := range codes {
		if _, err := ByCode(c); err != nil {
			return nil, err
		}
		want[c] = true
	}
	var out []Spec
	for _, s := range All() {
		if want[s.Code] {
			out = append(out, s)
		}
	}
	return out, nil
}

// Largest returns the codes of the two biggest stand-ins, the subjects
// of the Exp-5 scalability sweep (TW and FS in the paper).
func Largest() []string {
	specs := All()
	sort.Slice(specs, func(i, j int) bool { return specs[i].PaperE > specs[j].PaperE })
	return []string{specs[0].Code, specs[1].Code}
}
