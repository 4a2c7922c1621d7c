package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"spider/internal/harness"
	"spider/internal/ids"
)

// runParity runs a short geo-mix against harness.Build and against the
// benchmark's own assembly, both undecorated, and fails when their
// write medians differ by more than write_p50_ms's bound in
// BENCHMARK.json: the benchmark must measure the system the repo's
// figures measure.
func runParity(seed int64, span time.Duration) error {
	w, err := findWorkload("geo-mix")
	if err != nil {
		return err
	}
	bound, err := metricBound("BENCHMARK.json", "write_p50_ms")
	if err != nil {
		return err
	}
	salt := byte(seed*37 + 11)

	c, err := harness.Build(harness.BuildOptions{System: harness.SystemSpider, Scale: w.scale, Seed: seed})
	if err != nil {
		return fmt.Errorf("harness build: %w", err)
	}
	d := &deployment{}
	for i, region := range w.clientRegions() {
		hc, err := c.NewClient(region)
		if err != nil {
			c.Stop()
			return err
		}
		d.clients = append(d.clients, &benchClient{id: ids.ClientID(firstClientID + i), region: region, c: hc})
	}
	harnessP50, err := parityRun(w, d, seed, span, salt)
	c.Stop()
	if err != nil {
		return fmt.Errorf("harness deployment: %w", err)
	}

	p := newPlan(w.scale, w.regions, w.clientRegions())
	own, _, err := setUp(p, seed, false, salt)
	if err != nil {
		return err
	}
	ownP50, err := parityRun(w, own, seed, span, salt)
	own.stop()
	if err != nil {
		return fmt.Errorf("own deployment: %w", err)
	}

	diff := math.Abs(ownP50-harnessP50) / harnessP50
	fmt.Printf("parity geo-mix seed %d: write_p50_ms harness %.3f, benchmark %.3f, difference %.2f%% (bound %.0f%%)\n",
		seed, harnessP50, ownP50, 100*diff, 100*bound)
	if diff > bound {
		return fmt.Errorf("parity failed: write_p50_ms differs by %.2f%%, more than the %.0f%% bound", 100*diff, 100*bound)
	}
	return nil
}

// parityRun seeds every client's key, runs one phase and returns the
// write median.
func parityRun(w *workload, d *deployment, seed int64, span time.Duration, salt byte) (float64, error) {
	if err := seedKeys(d.clients, salt); err != nil {
		return 0, err
	}
	ph := newPhase(w, d, salt)
	out := ph.run(w.members(d.clients), span, seed)
	if out.failed > 0 || ph.nViolations > 0 {
		return 0, fmt.Errorf("%d failed operations, %d violations %v", out.failed, ph.nViolations, ph.violations)
	}
	return ph.merged(kWrite).quantile(0.5), nil
}

// metricBound reads an end-to-end metric's bound from BENCHMARK.json.
func metricBound(path, name string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == name {
			return m.Bound, nil
		}
	}
	return 0, fmt.Errorf("%s has no end-to-end metric %q", path, name)
}
