// Package experiment runs declarative experiment suites: a JSON document
// names a workload family, a set of strategies and a seed count, and
// internal/runner measures every (strategy, seed) cell against the offline
// optimum, folded into per-strategy competitive-ratio summaries. This is
// the reproducible-config surface a downstream user scripts against
// (cmd/schedsim -config).
package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"reqsched/internal/ratio"
	"reqsched/internal/registry"
	"reqsched/internal/runner"
)

// Config is one experiment suite.
type Config struct {
	// Name labels the suite in reports.
	Name string `json:"name"`
	// Workload selects and parameterizes the generator.
	Workload WorkloadSpec `json:"workload"`
	// Strategies lists strategy names (empty = all).
	Strategies []string `json:"strategies,omitempty"`
	// Seeds is the number of seeds to aggregate over (default 1).
	Seeds int `json:"seeds,omitempty"`
	// Workers sizes the worker pool the (strategy, seed) cells run on
	// (<= 0: GOMAXPROCS). Results are independent of the worker count:
	// each summary is folded in seed order.
	Workers int `json:"workers,omitempty"`
}

// WorkloadSpec parameterizes a workload family.
type WorkloadSpec struct {
	// Kind: uniform | zipf | bursty | video | single | cchoice | mixed.
	Kind string `json:"kind"`
	// N resources, D window, Rounds with arrivals, Rate mean arrivals/round.
	N      int     `json:"n"`
	D      int     `json:"d"`
	Rounds int     `json:"rounds"`
	Rate   float64 `json:"rate"`
	// Zipf exponent (zipf, video); Items catalog size (video); On/Off/Burst
	// (bursty); Choices (cchoice); TrapEvery (trapmix); MaxWeight (weighted).
	Zipf      float64 `json:"zipf,omitempty"`
	Items     int     `json:"items,omitempty"`
	On        int     `json:"on,omitempty"`
	Off       int     `json:"off,omitempty"`
	Burst     float64 `json:"burst,omitempty"`
	Choices   int     `json:"choices,omitempty"`
	TrapEvery int     `json:"trapEvery,omitempty"`
	MaxWeight int     `json:"maxWeight,omitempty"`
}

// validate normalizes defaults and rejects nonsense.
func (c *Config) validate() error {
	w := &c.Workload
	if w.N < 1 || w.D < 1 || w.Rounds < 1 {
		return fmt.Errorf("experiment: need n, d, rounds >= 1 (got %d, %d, %d)", w.N, w.D, w.Rounds)
	}
	if w.Rate <= 0 {
		w.Rate = float64(w.N)
	}
	if c.Seeds <= 0 {
		c.Seeds = 1
	}
	switch w.Kind {
	case "uniform", "zipf", "bursty", "video", "single", "cchoice", "mixed", "trapmix", "weighted":
	default:
		return fmt.Errorf("experiment: unknown workload kind %q", w.Kind)
	}
	if w.Kind == "weighted" && w.MaxWeight < 1 {
		w.MaxWeight = 10
	}
	if w.Kind == "trapmix" {
		if w.N < 6 {
			return fmt.Errorf("experiment: trapmix needs n >= 6")
		}
		if w.TrapEvery < 1 {
			w.TrapEvery = 10
		}
	}
	if w.Kind == "zipf" || w.Kind == "video" {
		if w.Zipf <= 1 {
			w.Zipf = 1.4
		}
	}
	if w.Kind == "video" && w.Items < 2 {
		w.Items = 100
	}
	if w.Kind == "bursty" {
		if w.On < 1 {
			w.On = 5
		}
		if w.Off < 1 {
			w.Off = 10
		}
		if w.Burst <= 0 {
			w.Burst = 3 * w.Rate
		}
	}
	if w.Kind == "cchoice" {
		if w.Choices < 1 || w.Choices > w.N {
			return fmt.Errorf("experiment: choices %d out of range", w.Choices)
		}
	}
	if len(c.Strategies) == 0 {
		c.Strategies = defaultStrategies()
	} else {
		for _, name := range c.Strategies {
			if _, err := registry.NewStrategySpec(name); err != nil {
				return fmt.Errorf("experiment: unknown strategy %q", name)
			}
		}
	}
	return nil
}

// defaultStrategies lists, sorted, every parameterless registered strategy
// — the registry's listed set plus the weighted extensions. The two
// seed-parameterized randomized strategies are excluded: a suite names a
// deterministic algorithm, the seeds axis belongs to the workload. A suite
// may still name any registry strategy spec, such as
// "compose,router=greedy,order=sjf", to compare composed policies against
// the fused strategies.
func defaultStrategies() []string {
	var names []string
	for _, c := range registry.All(registry.KindStrategy) {
		// Grouped parameters (the shared service-model group) don't make a
		// strategy "parameterized" — only a schema of its own (seeds, axes)
		// does.
		own := false
		for _, p := range c.Params {
			if p.Group == "" {
				own = true
				break
			}
		}
		if !own {
			names = append(names, c.Name)
		}
	}
	sort.Strings(names)
	return names
}

// params returns the workload as the registry parameters of its kind. The
// suite spells four of them differently (zipf is s, trapEvery trap_every,
// maxWeight maxw, choices c); every value validate filled in is passed
// explicitly, so the traces are the ones the suite has always generated.
// Fields the kind does not declare are dropped; the service model keeps its
// unit default.
func (w *WorkloadSpec) params() registry.Params {
	iv := func(v int) registry.Value { return registry.IntVal(int64(v)) }
	all := registry.Params{
		"n": iv(w.N), "d": iv(w.D), "rounds": iv(w.Rounds), "rate": registry.FloatVal(w.Rate),
		"s": registry.FloatVal(w.Zipf), "items": iv(w.Items),
		"on": iv(w.On), "off": iv(w.Off), "burst": registry.FloatVal(w.Burst),
		"c": iv(w.Choices), "trap_every": iv(w.TrapEvery), "maxw": iv(w.MaxWeight),
	}
	c, _ := registry.SourceComponent(w.Kind)
	p := make(registry.Params)
	for _, sp := range c.Params {
		if v, ok := all[sp.Name]; ok {
			p[sp.Name] = v
		}
	}
	return p
}

// Load parses and validates a Config from JSON.
func Load(r io.Reader) (*Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("experiment: decode: %w", err)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Row is one strategy's aggregated outcome.
type Row struct {
	Strategy string
	Summary  *ratio.Summary
}

// Report is the outcome of a suite run.
type Report struct {
	Config *Config
	// MeanOptimum is the offline optimum averaged over seeds.
	MeanOptimum float64
	Rows        []Row
}

// Run executes the suite: every strategy against the same seed family, one
// runner record per (strategy, seed), measured on a Workers-sized pool. Each
// strategy's summary is folded in seed order, so the report is identical
// for every worker count.
func (c *Config) Run() (*Report, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	params := c.Workload.params()
	var recs []runner.Record
	for _, name := range c.Strategies {
		for seed := 0; seed < c.Seeds; seed++ {
			p := params.Clone()
			p["seed"] = registry.IntVal(int64(seed))
			recs = append(recs, runner.Record{
				Name: fmt.Sprintf("%s seed %d", name, seed), Strategy: name, Source: c.Workload.Kind, Params: p,
			})
		}
	}
	jobs, err := runner.Manifest(recs)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	res, err := runner.Run(context.Background(), jobs, runner.Options{Tool: "experiment", Workers: c.Workers})
	if err != nil {
		return nil, err
	}
	if res.FailureReport != "" {
		return nil, fmt.Errorf("experiment: %s", res.FailureReport)
	}
	rep := &Report{Config: c}
	for i, name := range c.Strategies {
		ms := res.Measurements[i*c.Seeds : (i+1)*c.Seeds]
		sum := &ratio.Summary{Strategy: ms[0].Strategy}
		for _, m := range ms {
			sum.Add(m)
		}
		rep.Rows = append(rep.Rows, Row{Strategy: name, Summary: sum})
	}
	optSum := 0
	for _, m := range res.Measurements[:c.Seeds] {
		optSum += m.OPT
	}
	rep.MeanOptimum = float64(optSum) / float64(c.Seeds)
	sort.Slice(rep.Rows, func(i, j int) bool {
		return rep.Rows[i].Summary.Ratio.Mean() < rep.Rows[j].Summary.Ratio.Mean()
	})
	return rep, nil
}

// Format renders the report as an aligned table, best strategy first.
func (r *Report) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "suite %q: %s workload, n=%d d=%d rounds=%d rate=%.1f, %d seed(s), mean OPT %.1f\n\n",
		r.Config.Name, r.Config.Workload.Kind, r.Config.Workload.N, r.Config.Workload.D,
		r.Config.Workload.Rounds, r.Config.Workload.Rate, r.Config.Seeds, r.MeanOptimum)
	fmt.Fprintf(&sb, "%-20s %10s %9s %9s %10s\n", "strategy", "ratio", "±std", "max", "served")
	for _, row := range r.Rows {
		s := row.Summary
		fmt.Fprintf(&sb, "%-20s %10.4f %9.4f %9.4f %10.1f\n",
			row.Strategy, s.Ratio.Mean(), s.Ratio.Std(), s.Ratio.Max(), s.Served.Mean())
	}
	return sb.String()
}
