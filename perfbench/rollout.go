package main

import (
	"os"
	"path/filepath"
	"strings"
	"time"

	"tpusim/internal/experiments"
)

// The rollout workload is experiments.RunRollout with default settings on
// the seed: three independent 8x4-host twins (healthy, bad v2, good v2).
// It drives the same cluster and des code as pod the opposite way: the
// build is negligible and the run, its heap and its percentiles dominate.
//
// Checks: Acceptance() is empty for every seed, and at the campaign's
// default seed (42, which seed 0 also selects) the render equals the
// repository golden rollout_campaign.txt byte for byte.
const rolloutGoldenSeed = 42

func init() {
	register(&spec{name: "rollout", run: runRollout, profileChecks: rolloutChecks})
}

func runRollout(j *job) error {
	j.setupDone() // RunRollout builds its own fleets; there is no separate set-up
	var res *experiments.RolloutResult
	var err error
	start := time.Now()
	j.span("experiments.rollout_s", func() {
		res, err = experiments.RunRollout(experiments.RolloutConfig{Seed: j.seed})
	})
	if err != nil {
		return err
	}
	text := experiments.RenderRollout(res)
	j.workDone()

	events := res.Healthy.EventsProcessed + res.Bad.EventsProcessed + res.Good.EventsProcessed
	j.count("des.events", float64(events))
	j.events(float64(events), start, j.rec.Layers["experiments.rollout_s"])
	j.rec.Digest = sha(text)
	j.rec.Attempted = 1
	if bad := res.Acceptance(); len(bad) > 0 {
		j.problem("rollout: acceptance violated: %s", strings.Join(bad, "; "))
	}
	if res.Cfg.Seed == rolloutGoldenSeed {
		want, err := os.ReadFile(filepath.Join(j.root, "internal", "experiments", "testdata", "golden", "rollout_campaign.txt"))
		switch {
		case err != nil:
			j.problem("rollout: golden: %v", err)
		case text != string(want):
			j.problem("rollout: render differs from rollout_campaign.txt")
		}
	}
	if !j.rec.OK {
		j.rec.Failed = 1
	}
	return nil
}

// rolloutChecks: the campaign's time should be led by the des calendar,
// its container/heap and the percentile code.
func rolloutChecks(r *result) []string {
	return []string{r.Prof.ledBy("rollout", "tpusim/internal/des", "container/heap", "tpusim/internal/stats")}
}
