package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"groupranking"
)

func TestLoadScenario(t *testing.T) {
	k := 1
	q, crit, profiles, err := loadScenario(filepath.Join("testdata", "scenario.json"), &k)
	if err != nil {
		t.Fatal(err)
	}
	if q.M() != 4 || q.T() != 2 {
		t.Errorf("questionnaire shape m=%d t=%d, want 4, 2", q.M(), q.T())
	}
	if len(profiles) != 4 {
		t.Errorf("got %d profiles", len(profiles))
	}
	if k != 2 {
		t.Errorf("k from file = %d, want 2", k)
	}
	if crit.Weights[0] != 8 {
		t.Errorf("criterion weights %v", crit.Weights)
	}
	// The loaded scenario must actually run.
	res, err := groupranking.Rank(context.Background(), q, crit, profiles, groupranking.Options{
		K: k, D1: 10, D2: 4, H: 6, Seed: "scenario-test", GroupName: "toy-dl-256",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Submissions) != 2 {
		t.Errorf("got %d submissions, want 2", len(res.Submissions))
	}
}

func TestLoadScenarioErrors(t *testing.T) {
	k := 1
	if _, _, _, err := loadScenario("testdata/does-not-exist.json", &k); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadScenario(bad, &k); err == nil {
		t.Error("malformed JSON accepted")
	}
	// An unknown kind, the long spelling of earlier scenario files and a
	// missing kind are all refused.
	for _, attr := range []string{`{"name":"x","kind":"weird"}`, `{"name":"x","kind":"equal-to"}`, `{"name":"x"}`} {
		badKind := filepath.Join(t.TempDir(), "kind.json")
		scenario := `{"attributes":[` + attr + `],"criterion":{"values":[1],"weights":[1]},"profiles":[[1],[2]]}`
		if err := os.WriteFile(badKind, []byte(scenario), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := loadScenario(badKind, &k); err == nil {
			t.Errorf("attribute %s accepted", attr)
		}
	}
}

func TestGenerate(t *testing.T) {
	q, crit, profiles, err := generate(5, 6, 3, 8, 5, "gen-test")
	if err != nil {
		t.Fatal(err)
	}
	if q.M() != 6 || q.T() != 3 {
		t.Errorf("shape m=%d t=%d", q.M(), q.T())
	}
	if len(profiles) != 5 || len(crit.Values) != 6 {
		t.Errorf("generated sizes wrong: %d profiles, %d criterion values", len(profiles), len(crit.Values))
	}
	// Deterministic for the same seed.
	_, crit2, _, err := generate(5, 6, 3, 8, 5, "gen-test")
	if err != nil {
		t.Fatal(err)
	}
	for i := range crit.Values {
		if crit.Values[i] != crit2.Values[i] {
			t.Fatal("generation not deterministic for a fixed seed")
		}
	}
}

func TestFromPreset(t *testing.T) {
	d1, d2 := 0, 0
	q, crit, profiles, err := fromPreset("marketing", 6, "test", &d1, &d2)
	if err != nil {
		t.Fatal(err)
	}
	if q.M() != 4 || len(profiles) != 6 || len(crit.Weights) != 4 {
		t.Errorf("preset instantiation wrong: m=%d profiles=%d", q.M(), len(profiles))
	}
	if d1 == 0 || d2 == 0 {
		t.Error("preset bit widths not adopted")
	}
	// The preset workload must run end-to-end.
	res, err := groupranking.Rank(context.Background(), q, crit, profiles, groupranking.Options{
		K: 2, D1: d1, D2: d2, H: 6, Seed: "preset-run", GroupName: "toy-dl-256",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Submissions) == 0 {
		t.Error("no submissions from preset run")
	}
	if _, _, _, err := fromPreset("nope", 3, "x", &d1, &d2); err == nil {
		t.Error("unknown preset accepted")
	}
}
