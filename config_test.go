package pdbscan

import (
	"math"
	"strings"
	"testing"
)

// TestConfigValidateTable exercises the exported Config.Validate directly:
// every invalid field is rejected with a message naming the field, and every
// valid shape passes. This is the pre-queue validation services apply before
// paying to schedule a request (shared by Cluster, Clusterer.Run/RunContext,
// StreamingClusterer.Run/RunContext, and engine.Engine.Submit).
func TestConfigValidateTable(t *testing.T) {
	valid := Config{Eps: 2, MinPts: 5}
	cases := []struct {
		name  string
		mut   func(*Config)
		field string // expected substring of the error; "" = valid
	}{
		{"valid minimal", func(c *Config) {}, ""},
		{"valid zero eps (deferred)", func(c *Config) { c.Eps = 0 }, ""},
		{"valid auto method", func(c *Config) { c.Method = MethodAuto }, ""},
		{"valid every method", func(c *Config) { c.Method = Method2DBoxDelaunay }, ""},
		{"valid rho", func(c *Config) { c.Method = MethodApprox; c.Rho = 0.1 }, ""},
		{"valid workers/shards/buckets", func(c *Config) { c.Workers = 4; c.Shards = 7; c.Buckets = 8; c.Bucketing = true }, ""},

		{"negative eps", func(c *Config) { c.Eps = -1 }, "Eps"},
		{"NaN eps", func(c *Config) { c.Eps = math.NaN() }, "Eps"},
		{"Inf eps", func(c *Config) { c.Eps = math.Inf(1) }, "Eps"},
		{"zero minpts", func(c *Config) { c.MinPts = 0 }, "MinPts"},
		{"negative minpts", func(c *Config) { c.MinPts = -3 }, "MinPts"},
		{"unknown method", func(c *Config) { c.Method = "bogus" }, "method"},
		{"negative rho", func(c *Config) { c.Rho = -0.5 }, "Rho"},
		{"NaN rho", func(c *Config) { c.Rho = math.NaN() }, "Rho"},
		{"Inf rho", func(c *Config) { c.Rho = math.Inf(-1) }, "Rho"},
		{"negative workers", func(c *Config) { c.Workers = -1 }, "Workers"},
		{"negative shards", func(c *Config) { c.Shards = -2 }, "Shards"},
		{"negative buckets", func(c *Config) { c.Buckets = -1 }, "Buckets"},

		{"valid uniform sampler", func(c *Config) { c.Sampler = SamplerUniform; c.SampleFrac = 0.1 }, ""},
		{"valid kcenter sampler full frac", func(c *Config) { c.Sampler = SamplerKCenter; c.SampleFrac = 1 }, ""},
		{"valid sampler with monolithic shards", func(c *Config) { c.Sampler = SamplerUniform; c.SampleFrac = 0.5; c.Shards = 1 }, ""},
		{"unknown sampler", func(c *Config) { c.Sampler = "bogus"; c.SampleFrac = 0.1 }, "sampler"},
		{"frac without sampler", func(c *Config) { c.SampleFrac = 0.1 }, "SampleFrac"},
		{"sampler without frac", func(c *Config) { c.Sampler = SamplerUniform }, "SampleFrac"},
		{"frac above one", func(c *Config) { c.Sampler = SamplerUniform; c.SampleFrac = 1.5 }, "SampleFrac"},
		{"negative frac", func(c *Config) { c.Sampler = SamplerKCenter; c.SampleFrac = -0.2 }, "SampleFrac"},
		{"NaN frac", func(c *Config) { c.Sampler = SamplerUniform; c.SampleFrac = math.NaN() }, "SampleFrac"},
		{"valid sampler with multi-shard", func(c *Config) { c.Sampler = SamplerUniform; c.SampleFrac = 0.1; c.Shards = 2 }, ""},

		{"valid spill", func(c *Config) { c.Spill = true }, ""},
		{"valid spill with budget", func(c *Config) { c.Spill = true; c.MaxResidentBytes = 1 << 20 }, ""},
		{"negative budget", func(c *Config) { c.Spill = true; c.MaxResidentBytes = -1 }, "MaxResidentBytes"},
		{"budget without spill", func(c *Config) { c.MaxResidentBytes = 1 << 20 }, "Spill"},
		{"spill with sampler", func(c *Config) { c.Spill = true; c.Sampler = SamplerUniform; c.SampleFrac = 0.1 }, "Sampler"},
		{"spill with shards", func(c *Config) { c.Spill = true; c.Shards = 4 }, "Shards"},
	}
	for _, tc := range cases {
		cfg := valid
		tc.mut(&cfg)
		err := cfg.Validate()
		if tc.field == "" {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Validate() accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name field %q", tc.name, err, tc.field)
		}
	}
}

// TestValidateMatchesRunRejection pins that a Config rejected by Validate is
// rejected by the run paths too (same up-front check), so pre-validating
// callers never queue a job the run would bounce.
func TestValidateMatchesRunRejection(t *testing.T) {
	rows := blobs(60, 2, 19)
	bad := []Config{
		{Eps: 2, MinPts: 0},
		{Eps: 2, MinPts: 5, Method: "bogus"},
		{Eps: 2, MinPts: 5, Rho: -1},
		{Eps: 2, MinPts: 5, Workers: -1},
		{Eps: 2, MinPts: 5, Shards: -1},
		{Eps: 2, MinPts: 5, Buckets: -1},
		{Eps: 2, MinPts: 5, Sampler: "bogus", SampleFrac: 0.1},
		{Eps: 2, MinPts: 5, Sampler: SamplerUniform},
	}
	c, err := NewClusterer(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamingClusterer(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(rows); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Fatalf("case %d: Validate accepted a bad config", i)
		}
		if _, err := Cluster(rows, cfg); err == nil {
			t.Errorf("case %d: Cluster accepted", i)
		}
		if _, err := c.Run(cfg); err == nil {
			t.Errorf("case %d: Clusterer.Run accepted", i)
		}
		if _, err := s.Run(cfg); err == nil {
			t.Errorf("case %d: StreamingClusterer.Run accepted", i)
		}
		if _, err := c.BuildHierarchyContext(nil, cfg); err == nil {
			t.Errorf("case %d: BuildHierarchyContext accepted", i)
		}
	}
}

// TestHierarchyValidationTable pins the hierarchy entry points' validation:
// BuildHierarchyContext applies the shared Config.Validate (MinPts bounds,
// Workers, eps-match against the Clusterer), and the query side rejects
// non-finite, non-positive, and beyond-build radii through ValidateEps —
// the same check CutEps and engine.Submit apply.
func TestHierarchyValidationTable(t *testing.T) {
	rows := blobs(80, 2, 5)
	c, err := NewClusterer(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	buildCases := []struct {
		name  string
		cfg   Config
		field string // expected substring of the error; "" = valid
	}{
		{"valid", Config{MinPts: 3}, ""},
		{"valid explicit eps", Config{Eps: 2, MinPts: 3}, ""},
		{"valid explicit workers", Config{MinPts: 3, Workers: 2}, ""},
		{"zero minpts", Config{MinPts: 0}, "MinPts"},
		{"negative minpts", Config{MinPts: -2}, "MinPts"},
		{"negative workers", Config{MinPts: 3, Workers: -1}, "Workers"},
		{"mismatched eps", Config{Eps: 3, MinPts: 3}, "Eps"},
		{"NaN eps", Config{Eps: math.NaN(), MinPts: 3}, "Eps"},
	}
	for _, tc := range buildCases {
		_, err := c.BuildHierarchyContext(nil, tc.cfg)
		if tc.field == "" {
			if err != nil {
				t.Errorf("build %s: %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("build %s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("build %s: error %q does not name %q", tc.name, err, tc.field)
		}
	}
	h, err := c.BuildHierarchy(3)
	if err != nil {
		t.Fatal(err)
	}
	cutCases := []struct {
		name string
		eps  float64
		ok   bool
	}{
		{"valid interior", 1, true},
		{"valid at build eps", 2, true},
		{"zero", 0, false},
		{"negative", -1, false},
		{"NaN", math.NaN(), false},
		{"+Inf", math.Inf(1), false},
		{"-Inf", math.Inf(-1), false},
		{"beyond build eps", 2.5, false},
	}
	for _, tc := range cutCases {
		verr := h.ValidateEps(tc.eps)
		_, cerr := h.CutEps(tc.eps)
		if tc.ok {
			if verr != nil || cerr != nil {
				t.Errorf("cut %s: ValidateEps=%v CutEps=%v, want nil", tc.name, verr, cerr)
			}
			continue
		}
		if verr == nil || cerr == nil {
			t.Errorf("cut %s: ValidateEps=%v CutEps=%v, want errors", tc.name, verr, cerr)
		}
	}
	if _, err := h.CutEpsContext(nil, 1, -1); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("CutEpsContext workers=-1: %v", err)
	}
	if _, _, err := h.CutKContext(nil, 2, -1); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("CutKContext workers=-1: %v", err)
	}
}
