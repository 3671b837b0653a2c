package main

import (
	"os"
	"path/filepath"
	"testing"
)

func FuzzLoadScenario(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "scenario.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"attributes": []}`))
	f.Add([]byte(`{"attributes": [{"name":"x","kind":"eq"}], "profiles": [[1],[2]], "criterion": {"values":[1],"weights":[1]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "s.json")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		k := 1
		// Must never panic; errors are fine.
		q, _, profiles, err := loadScenario(path, &k)
		if err != nil {
			return
		}
		// Accepted scenarios must be internally consistent.
		for i, p := range profiles {
			if len(p.Values) != q.M() {
				t.Fatalf("accepted scenario with profile %d of %d values against m=%d", i, len(p.Values), q.M())
			}
		}
	})
}
