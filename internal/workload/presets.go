package workload

import (
	"fmt"
	"io"
	"sort"
)

// Preset is a named, self-contained scenario: a questionnaire with
// domain semantics, realistic value ranges per attribute, and a
// plausible initiator criterion. presets back the examples, the
// grouprank CLI and scenario-driven benchmarks with workloads that look
// like the paper's motivating applications instead of uniform noise.
type Preset struct {
	// Name identifies the preset (see presets for the registry).
	Name string
	// Description says what the scenario models.
	Description string

	questionnaire *Questionnaire
	criterion     Criterion
	// ranges bounds each attribute's participant values [min, max].
	ranges [][2]int64
	// d1, d2 are the bit widths covering the ranges and weights.
	d1, d2 int
}

// Questionnaire returns the preset's attribute layout.
func (p *Preset) Questionnaire() *Questionnaire { return p.questionnaire }

// Criterion returns the canonical initiator criterion of the scenario.
func (p *Preset) Criterion() Criterion {
	return Criterion{
		Values:  append([]int64(nil), p.criterion.Values...),
		Weights: append([]int64(nil), p.criterion.Weights...),
	}
}

// Bits returns the value/weight bit widths (d1, d2) that cover the
// preset's ranges.
func (p *Preset) Bits() (d1, d2 int) { return p.d1, p.d2 }

// SampleProfiles draws n participant profiles with attribute values
// uniform within each attribute's realistic range.
func (p *Preset) SampleProfiles(n int, rng io.Reader) ([]Profile, error) {
	out := make([]Profile, n)
	for i := range out {
		vals := make([]int64, len(p.ranges))
		for k, r := range p.ranges {
			span := r[1] - r[0] + 1
			v, err := randomVec(1, 62, rng)
			if err != nil {
				return nil, err
			}
			vals[k] = r[0] + ((v[0]%span + span) % span)
		}
		out[i] = Profile{Values: vals}
	}
	return out, nil
}

// mustPreset builds a preset, panicking on construction errors (the
// definitions are compile-time constants validated by tests).
func mustPreset(name, desc string, attrs []Attribute, crit Criterion, ranges [][2]int64, d1, d2 int) *Preset {
	q, err := NewQuestionnaire(attrs)
	if err != nil {
		panic(fmt.Sprintf("workload: invalid preset %s: %v", name, err))
	}
	if len(crit.Values) != q.M() || len(crit.Weights) != q.M() || len(ranges) != q.M() {
		panic(fmt.Sprintf("workload: preset %s has inconsistent dimensions", name))
	}
	return &Preset{
		Name: name, Description: desc,
		questionnaire: q, criterion: crit, ranges: ranges, d1: d1, d2: d2,
	}
}

// presets returns the registry of built-in scenarios, keyed by name.
func presets() map[string]*Preset {
	return map[string]*Preset{
		"marketing": mustPreset(
			"marketing",
			"the paper's motivating online-marketing campaign: a health product trial targeting a demographic profile with marketing reach",
			[]Attribute{
				{Name: "age", Kind: EqualTo},
				{Name: "blood_pressure", Kind: EqualTo},
				{Name: "friends", Kind: GreaterThan},
				{Name: "annual_income_k", Kind: GreaterThan},
			},
			Criterion{Values: []int64{45, 130, 0, 0}, Weights: []int64{8, 4, 3, 1}},
			[][2]int64{{18, 90}, {90, 180}, {0, 1000}, {10, 250}},
			10, 4,
		),
		"matchmaking": mustPreset(
			"matchmaking",
			"interest matching over sensitive positions: a match is someone close to the seeker on every 0..100 scale",
			[]Attribute{
				{Name: "political_leaning", Kind: EqualTo},
				{Name: "religiosity", Kind: EqualTo},
				{Name: "outdoor_lifestyle", Kind: EqualTo},
				{Name: "night_owl", Kind: EqualTo},
			},
			Criterion{Values: []int64{35, 20, 80, 60}, Weights: []int64{5, 2, 4, 1}},
			[][2]int64{{0, 100}, {0, 100}, {0, 100}, {0, 100}},
			7, 3,
		),
		"recruiting": mustPreset(
			"recruiting",
			"business-network recruiting with a health-profile requirement plus experience and certification count",
			[]Attribute{
				{Name: "fitness_score", Kind: EqualTo},
				{Name: "resting_heart_rate", Kind: EqualTo},
				{Name: "years_experience", Kind: GreaterThan},
				{Name: "certifications", Kind: GreaterThan},
			},
			Criterion{Values: []int64{75, 60, 0, 0}, Weights: []int64{6, 3, 5, 2}},
			[][2]int64{{30, 100}, {40, 100}, {0, 40}, {0, 12}},
			7, 3,
		),
	}
}

// presetNames lists the registry keys in stable order.
func presetNames() []string {
	m := presets()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PresetByName resolves a preset or reports the available names.
func PresetByName(name string) (*Preset, error) {
	p, ok := presets()[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown preset %q (available: %v)", name, presetNames())
	}
	return p, nil
}
