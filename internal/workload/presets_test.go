package workload

import (
	"testing"

	"groupranking/internal/fixedbig"
)

func TestPresetRegistry(t *testing.T) {
	names := presetNames()
	if len(names) != 3 {
		t.Fatalf("expected 3 presets, got %v", names)
	}
	for _, name := range names {
		p, err := PresetByName(name)
		if err != nil {
			t.Fatalf("PresetByName(%q): %v", name, err)
		}
		if p.Name != name || p.Description == "" {
			t.Errorf("preset %q metadata incomplete", name)
		}
		if p.Questionnaire().M() < 2 {
			t.Errorf("preset %q too small", name)
		}
	}
	if _, err := PresetByName("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestPresetCriterionConsistent(t *testing.T) {
	for _, name := range presetNames() {
		p, err := PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		crit := p.Criterion()
		q := p.Questionnaire()
		if len(crit.Values) != q.M() || len(crit.Weights) != q.M() {
			t.Errorf("preset %q criterion dimensions wrong", name)
		}
		d1, d2 := p.Bits()
		for k, v := range crit.Values {
			if v < 0 || v >= 1<<uint(d1) {
				t.Errorf("preset %q criterion value %d (%d) outside d1=%d bits", name, k, v, d1)
			}
		}
		for k, w := range crit.Weights {
			if w <= 0 || w >= 1<<uint(d2) {
				t.Errorf("preset %q weight %d (%d) outside d2=%d bits", name, k, w, d2)
			}
		}
		// Criterion must be usable: the criterion itself scores as a
		// profile (a perfect equal-to match).
		if _, err := q.Gain(crit, Profile{Values: crit.Values}); err != nil {
			t.Errorf("preset %q criterion not gain-evaluable: %v", name, err)
		}
	}
}

func TestPresetSampling(t *testing.T) {
	rng := fixedbig.NewDRBG("presets")
	for _, name := range presetNames() {
		p, err := PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profiles, err := p.SampleProfiles(20, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(profiles) != 20 {
			t.Fatalf("preset %q: got %d profiles", name, len(profiles))
		}
		d1, _ := p.Bits()
		q := p.Questionnaire()
		distinct := map[int64]bool{}
		for _, prof := range profiles {
			if len(prof.Values) != q.M() {
				t.Fatalf("preset %q: profile dimension %d", name, len(prof.Values))
			}
			for k, v := range prof.Values {
				if v < p.ranges[k][0] || v > p.ranges[k][1] {
					t.Errorf("preset %q: attribute %d value %d outside range %v", name, k, v, p.ranges[k])
				}
				if v < 0 || v >= 1<<uint(d1) {
					t.Errorf("preset %q: value %d exceeds d1=%d bits", name, v, d1)
				}
			}
			distinct[prof.Values[0]] = true
			// Sampled profiles must be gain-evaluable against the
			// canonical criterion.
			if _, err := q.Gain(p.Criterion(), prof); err != nil {
				t.Fatalf("preset %q: profile not evaluable: %v", name, err)
			}
		}
		if len(distinct) < 3 {
			t.Errorf("preset %q: sampling looks degenerate (%d distinct first attributes)", name, len(distinct))
		}
	}
}

func TestPresetCriterionCopyIsolated(t *testing.T) {
	p, err := PresetByName("marketing")
	if err != nil {
		t.Fatal(err)
	}
	c := p.Criterion()
	c.Values[0] = -999
	if p.Criterion().Values[0] == -999 {
		t.Error("Criterion() must return a copy")
	}
}
