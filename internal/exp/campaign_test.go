package exp_test

// Cross-package determinism tests: every experiment driver rewired onto
// the campaign runner must produce bit-identical results for parallel 1
// vs parallel 8 and across repeated runs with the same campaign seed —
// the acceptance contract behind `benchfig -parallel N`.

import (
	"reflect"
	"testing"

	"repro/internal/matchlib"
	"repro/internal/noc"
	"repro/internal/verif"
)

func TestCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweeps in -short mode")
	}
	ports := []int{2, 4, 8}
	loads := []float64{0.05, 0.20, 0.40}

	cases := []struct {
		name string
		run  func(parallel int) any
	}{
		{"fig3", func(p int) any {
			rows, _ := matchlib.RunFig3Campaign(ports, 120, 7, p)
			return rows
		}},
		{"noc", func(p int) any {
			pts, _ := noc.LoadLatencyCampaign(4, 4, loads, 1500, 2, 7, p)
			return pts
		}},
		{"stallhunt", func(p int) any {
			agg, _ := verif.RunStallHuntCampaign(0.30, 80, 6, 7, p)
			return agg
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			seq := tc.run(1)
			par := tc.run(8)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("parallel=8 diverged from sequential:\nseq %+v\npar %+v", seq, par)
			}
			again := tc.run(8)
			if !reflect.DeepEqual(par, again) {
				t.Fatalf("repeated parallel run diverged:\nfirst %+v\nagain %+v", par, again)
			}
		})
	}
}

// benchmarkFig3NoC is the paper-evaluation inner loop: the Figure 3
// crossbar sweep plus the NoC load-latency sweep, as one campaign-sized
// unit of work per iteration.
func benchmarkFig3NoC(b *testing.B, parallel int) {
	ports := []int{2, 4, 8}
	loads := []float64{0.05, 0.20, 0.40}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		matchlib.RunFig3Campaign(ports, 120, 7, parallel)
		noc.LoadLatencyCampaign(4, 4, loads, 1500, 2, 7, parallel)
	}
}

func BenchmarkCampaignParallel1(b *testing.B) { benchmarkFig3NoC(b, 1) }
func BenchmarkCampaignParallel4(b *testing.B) { benchmarkFig3NoC(b, 4) }
