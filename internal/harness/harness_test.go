package harness

import (
	"bytes"
	"strings"
	"testing"

	"edgeswitch/internal/core"
)

func quickCfg(buf *bytes.Buffer) Config {
	return Config{Quick: true, Out: buf, Seed: 7}
}

// TestEveryExperimentRunsQuick smoke-tests each experiment at tiny scale:
// it must complete without error and emit a non-trivial table.
func TestEveryExperimentRunsQuick(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := Run(e.ID, quickCfg(&buf)); err != nil {
				t.Fatalf("%s: %v\noutput so far:\n%s", e.ID, err, buf.String())
			}
			out := buf.String()
			if len(out) < 80 {
				t.Fatalf("%s: suspiciously short output:\n%s", e.ID, out)
			}
			if !strings.Contains(out, e.ID) {
				t.Fatalf("%s: header missing:\n%s", e.ID, out)
			}
		})
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("bogus"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if err := Run("bogus", Config{}); err == nil {
		t.Fatal("Run accepted unknown id")
	}
}

func TestExperimentsCoverPaper(t *testing.T) {
	// Every evaluation artifact of the paper must have an experiment.
	want := []string{
		"table1", "table2", "table3",
		"fig4", "fig5", "fig6_7", "fig8_9", "fig10_11", "fig12_13",
		"fig14", "fig15", "fig16_17", "fig18", "fig19_20", "fig21_22",
		"fig23", "fig24", "fig25",
	}
	have := map[string]bool{}
	for _, e := range Experiments() {
		have[e.ID] = true
		if e.Paper == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %q missing", id)
		}
	}
	if len(have) != len(want) {
		t.Fatalf("unexpected extra experiments: %v", have)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 0.25 || c.Seed != 42 || c.Reps != 5 || c.Blocks != 20 {
		t.Fatalf("defaults: %+v", c)
	}
	if c.MaxRanks < 2 {
		t.Fatalf("MaxRanks %d", c.MaxRanks)
	}
	q := Config{Quick: true}.withDefaults()
	if q.Scale != 0.02 || q.MaxRanks > 4 || q.Reps > 2 {
		t.Fatalf("quick defaults: %+v", q)
	}
}

func TestStepSizes(t *testing.T) {
	ss := stepSizes(1000)
	if ss[0] != 1 {
		t.Fatalf("smallest step %d", ss[0])
	}
	last := ss[len(ss)-1]
	if last != 1000 {
		t.Fatalf("largest step %d", last)
	}
	seen := map[int64]bool{}
	for _, s := range ss {
		if seen[s] {
			t.Fatalf("duplicate step %d in %v", s, ss)
		}
		seen[s] = true
	}
}

func TestDeciles(t *testing.T) {
	min, med, max, imb := deciles([]int64{4, 1, 3, 2})
	if min != 1 || max != 4 || med != 3 {
		t.Fatalf("deciles: %d %d %d", min, med, max)
	}
	if imb != 1.6 {
		t.Fatalf("imbalance %f", imb)
	}
	if _, _, _, z := deciles(nil); z != 0 {
		t.Fatal("empty deciles")
	}
}

// TestTable3Verdict asserts the paper's step-size answer (§4.7, Table 3)
// against the sequential-vs-sequential error rate (ER): the HP schemes
// stay at the baseline in one step, CP does at step size t/100, and CP
// in one step does not, on the two clustered stand-ins. It fixes p = 4
// and scale 0.05: at Quick's scale 0.02 (p = 2 on two cores) CP's
// one-step ER is 0.9–1.5× the baseline (10 seeds), too close to tell.
func TestTable3Verdict(t *testing.T) {
	// Ratios to the seq-vs-seq ER over seeds 1–30: HP one-step
	// 0.94–1.25, CP t/100 0.90–1.13, CP one-step 2.66–4.34. The upper
	// bands are 1.2× the largest ratio seen. Quotas drawn from stale
	// edge counts put CP t/100 at 2.1–2.8×.
	const (
		hpBand     = 1.5
		cpT100Band = 1.35
		cpOneStep  = 2.0
	)
	cfg := Config{Scale: 0.05, MaxRanks: 4, Reps: 2}.withDefaults()
	rows, err := table3(cfg, []string{"miami", "smallworld"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for _, s := range []core.Scheme{core.SchemeHPD, core.SchemeHPM, core.SchemeHPU} {
			if ratio := r.oneStep[s] / r.baseline; ratio > hpBand {
				t.Errorf("%s: %s one-step ER %.3f%% is %.2f× the seq-vs-seq %.3f%% (band %.2f)",
					r.dataset, s, r.oneStep[s], ratio, r.baseline, hpBand)
			}
		}
		if ratio := r.cpT100 / r.baseline; ratio > cpT100Band {
			t.Errorf("%s: CP ER at t/100 %.3f%% is %.2f× the seq-vs-seq %.3f%% (band %.2f)",
				r.dataset, r.cpT100, ratio, r.baseline, cpT100Band)
		}
		if ratio := r.oneStep[core.SchemeCP] / r.baseline; ratio < cpOneStep {
			t.Errorf("%s: CP one-step ER %.3f%% is only %.2f× the seq-vs-seq %.3f%% (want ≥ %.2f)",
				r.dataset, r.oneStep[core.SchemeCP], ratio, r.baseline, cpOneStep)
		}
	}
}

// TestFig16_20Verdict asserts the final edge distributions behind Figs.
// 16–20: switching destroys the clustered Miami graph's label locality,
// so CP ends with skewed edges there, while on PA CP stays flat, and the
// hash schemes stay flat on both.
func TestFig16_20Verdict(t *testing.T) {
	// Final edges max/mean over seeds 1–20 at this config: CP 1.339–1.456
	// on miami, 1.010–1.020 on pa; HP-D and HP-M 1.002–1.065 on both.
	// HP-U reads 1.003–1.088 except on pa at seed 12 (1.234): one draw of
	// its hash coefficients can alias consecutive labels onto few ranks,
	// and PA's hubs are consecutive labels.
	const (
		cpMiamiSkew = 1.3
		flatBand    = 1.1
		hpuBand     = 1.25
	)
	cfg := Config{Scale: 0.05, MaxRanks: 4}.withDefaults()
	for _, name := range []string{"miami", "pa"} {
		_, _, loads, err := fig18(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		for i, scheme := range core.Schemes() {
			_, _, _, imb := deciles(loads[i])
			switch {
			case scheme == core.SchemeCP && name == "miami":
				if imb < cpMiamiSkew {
					t.Errorf("miami: CP final edges max/mean %.3f, want ≥ %.2f", imb, cpMiamiSkew)
				}
			case scheme == core.SchemeHPU:
				if imb > hpuBand {
					t.Errorf("%s: HP-U final edges max/mean %.3f, want ≤ %.2f", name, imb, hpuBand)
				}
			default:
				if imb > flatBand {
					t.Errorf("%s: %s final edges max/mean %.3f, want ≤ %.2f", name, scheme, imb, flatBand)
				}
			}
		}
	}
}

// TestFig21_22Verdict asserts the adversarial worst case (Figs. 21–22):
// on the relabeled PA graph the hot HP-D rank carries several times its
// fair share of operations, while HP-U's random hash keeps the ranks
// balanced.
func TestFig21_22Verdict(t *testing.T) {
	// Over seeds 1–30 the hot HP-D rank did 39.8–40.8% of the ops
	// (3.2× the fair 12.5%) and HP-U's max/mean was 1.03–1.23.
	const (
		hotOverFair = 2.5
		hpuImbBand  = 1.3
	)
	cfg := Config{Scale: 0.05, MaxRanks: 8}.withDefaults()
	_, _, rows, err := fig21_22(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fair := 100 / float64(cfg.MaxRanks)
	for _, r := range rows {
		if r.speedup <= 0 {
			t.Errorf("%s: speedup vs HP-D %.2f", r.scheme, r.speedup)
		}
		switch r.scheme {
		case core.SchemeHPD:
			if r.hotShare < hotOverFair*fair {
				t.Errorf("HP-D hot rank does %.1f%% of the ops, want ≥ %.1f × the fair %.1f%%",
					r.hotShare, hotOverFair, fair)
			}
		case core.SchemeHPU:
			if r.maxOverMean > hpuImbBand {
				t.Errorf("HP-U ops max/mean %.2f, want ≤ %.2f", r.maxOverMean, hpuImbBand)
			}
		}
	}
}
