package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tpusim/internal/datacenter"
	"tpusim/internal/experiments"
	"tpusim/internal/models"
	"tpusim/internal/platform"
	"tpusim/internal/power"
)

// The paper workload regenerates every table and figure the paper
// reproduces, in the order and format of `tpubench` (no flags), then runs
// the serving load sweep. It takes no seed: the experiments fix their own.
//
// Checks: the Table 2/3/4/6 renders equal the repository's goldens byte
// for byte, the full report hashes to reportSHA256 (the SHA-256 of
// `go run ./cmd/tpubench` output), and the load sweep render hashes to
// loadSweepSHA256.
const (
	reportSHA256    = "8fa85f4818389378ed940a012c66c5d41dcd235e79bee32a252f01d233c5a395"
	loadSweepSHA256 = "ee1716b5879e4461b10f5e8a2cbe1d68acb0e28b913d981859c78553cce3dc02"
)

func init() {
	register(&spec{name: "paper", run: runPaper, profileChecks: paperChecks})
}

// paperItem is one experiment of the tpubench report. span names the
// benchmark-side span around it ("" for none); golden names the
// repository golden its render must equal ("" for none).
type paperItem struct {
	id, title, span, golden string
	run                     func() (string, error)
}

func runPaper(j *job) error {
	j.setupDone() // nothing to set up beyond starting the process
	var report strings.Builder
	renders := map[string]string{}
	for _, e := range paperItems() {
		var out string
		var err error
		do := func() { out, err = e.run() }
		if e.span != "" {
			j.span(e.span, do)
		} else {
			do()
		}
		if err != nil {
			return fmt.Errorf("paper %s: %w", e.id, err)
		}
		fmt.Fprintf(&report, "== %s: %s ==\n%s\n", e.id, e.title, out)
		if e.golden != "" {
			renders[e.golden] = out
		}
	}
	var sweep []experiments.LoadSweep
	var err error
	sweepStart := time.Now()
	j.span("experiments.load_sweep_s", func() { sweep, err = experiments.LoadSweepAll() })
	if err != nil {
		return err
	}
	sweepText := experiments.RenderLoadSweep(sweep)
	j.workDone()

	requests := 0
	for _, row := range sweep {
		for _, p := range row.Points {
			requests += p.Result.Completed + p.Result.Shed
		}
	}
	j.events(float64(requests), sweepStart, j.rec.Layers["experiments.load_sweep_s"])
	j.rec.Attempted = 1

	for name, got := range renders {
		want, err := os.ReadFile(filepath.Join(j.root, "internal", "experiments", "testdata", "golden", name))
		if err != nil {
			j.problem("paper: golden %s: %v", name, err)
			continue
		}
		if got != string(want) {
			j.problem("paper: %s render differs from the golden", name)
		}
	}
	reportSum, sweepSum := sha(report.String()), sha(sweepText)
	if reportSum != reportSHA256 {
		j.problem("paper: report sha256 %s, recorded %s", reportSum, reportSHA256)
	}
	if sweepSum != loadSweepSHA256 {
		j.problem("paper: load sweep sha256 %s, recorded %s", sweepSum, loadSweepSHA256)
	}
	j.rec.Digest = sha(reportSum + sweepSum)
	if !j.rec.OK {
		j.rec.Failed = 1
	}
	return nil
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// paperChecks: the paper's time should be led by the perf model and the
// latency simulator it drives.
func paperChecks(r *result) []string {
	return []string{r.Prof.ledBy("paper", "tpusim/internal/perfmodel", "tpusim/internal/latency")}
}

// paperItems mirrors cmd/tpubench's experiment list, order and titles.
func paperItems() []paperItem {
	return []paperItem{
		{"t1", "Table 1: six NN applications", "", "", func() (string, error) {
			return experiments.RenderTable1(experiments.Table1()), nil
		}},
		{"t2", "Table 2: benchmarked servers", "", "table2.txt", func() (string, error) {
			return experiments.RenderTable2(experiments.Table2()), nil
		}},
		{"t3", "Table 3: TPU performance-counter breakdown", "experiments.table3_s", "table3.txt", func() (string, error) {
			rows, err := experiments.Table3()
			if err != nil {
				return "", err
			}
			return experiments.RenderTable3(rows), nil
		}},
		{"t4", "Table 4: 99th-percentile response time vs batch (MLP0)", "experiments.table4_s", "table4.txt", func() (string, error) {
			rows, err := experiments.Table4()
			if err != nil {
				return "", err
			}
			return experiments.RenderTable4(rows), nil
		}},
		{"t5", "Table 5: host interaction time", "", "", func() (string, error) {
			rows, err := experiments.Table5()
			if err != nil {
				return "", err
			}
			return experiments.RenderTable5(rows), nil
		}},
		{"t6", "Table 6: relative performance per die", "", "table6.txt", func() (string, error) {
			r, err := experiments.Table6()
			if err != nil {
				return "", err
			}
			return experiments.RenderTable6(r), nil
		}},
		{"t7", "Table 7: performance model vs simulator", "", "", func() (string, error) {
			rows, err := experiments.Table7()
			if err != nil {
				return "", err
			}
			return experiments.RenderTable7(rows), nil
		}},
		{"t8", "Table 8: Unified Buffer usage", "", "", func() (string, error) {
			rows, err := experiments.Table8()
			if err != nil {
				return "", err
			}
			return experiments.RenderTable8(rows), nil
		}},
		{"f5", "Figure 5: TPU roofline", "", "", func() (string, error) {
			r, err := experiments.RooflineTPU()
			if err != nil {
				return "", err
			}
			return experiments.RenderRoofline(r), nil
		}},
		{"f6", "Figure 6: Haswell roofline", "", "", func() (string, error) {
			r, err := experiments.RooflineBaseline(platform.CPU)
			if err != nil {
				return "", err
			}
			return experiments.RenderRoofline(r), nil
		}},
		{"f7", "Figure 7: K80 roofline", "", "", func() (string, error) {
			r, err := experiments.RooflineBaseline(platform.GPU)
			if err != nil {
				return "", err
			}
			return experiments.RenderRoofline(r), nil
		}},
		{"f8", "Figure 8: combined rooflines", "", "", func() (string, error) {
			rs, err := experiments.Figure8()
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, r := range rs {
				b.WriteString(experiments.RenderRoofline(r))
			}
			return b.String(), nil
		}},
		{"f9", "Figure 9: relative performance/Watt (TDP)", "", "", func() (string, error) {
			bars, err := experiments.Figure9()
			if err != nil {
				return "", err
			}
			return experiments.RenderFigure9(bars), nil
		}},
		{"f10", "Figure 10: Watts/die vs utilization (CNN0; LSTM1 below)", "", "", func() (string, error) {
			rows, err := experiments.Figure10()
			if err != nil {
				return "", err
			}
			out := "CNN0 anchors (56/66/88% at 10% load):\n" + experiments.RenderFigure10(rows)
			lrows, err := experiments.Figure10With(power.AnchorsLSTM1())
			if err != nil {
				return "", err
			}
			return out + "\nLSTM1 anchors (47/78/94% at 10% load):\n" + experiments.RenderFigure10(lrows), nil
		}},
		{"f11", "Figure 11: TPU design sensitivity 0.25x-4x", "", "", func() (string, error) {
			rows, err := experiments.Figure11()
			if err != nil {
				return "", err
			}
			return experiments.RenderFigure11(rows), nil
		}},
		{"s8", "Section 8: fallacies, pitfalls, and the sparsity extension", "", "", func() (string, error) {
			return experiments.RenderSection8()
		}},
		{"ab1", "Ablation: weight FIFO depth", "", "", func() (string, error) {
			rows, err := experiments.FIFODepthAblation()
			if err != nil {
				return "", err
			}
			return experiments.RenderAblations("cycles by FIFO depth", rows, "cycles"), nil
		}},
		{"ab2", "Ablation: operand precision (8/16-bit)", "", "", func() (string, error) {
			rows, err := experiments.PrecisionAblation()
			if err != nil {
				return "", err
			}
			return experiments.RenderAblations("cycles by precision mode", rows, "cycles"), nil
		}},
		{"ab3", "Ablation: Unified Buffer allocator", "", "", func() (string, error) {
			rows, err := experiments.AllocatorAblation()
			if err != nil {
				return "", err
			}
			return experiments.RenderAblations("UB peak bytes by allocator", rows, "UB bytes"), nil
		}},
		{"rw", "Section 9: related-work comparison (published data points)", "", "", func() (string, error) {
			return experiments.RenderRelatedWork(experiments.RelatedWork()), nil
		}},
		{"sla", "Extension: best 7 ms operating point, all apps and platforms", "experiments.sla_study_s", "", func() (string, error) {
			rows, err := experiments.SLAStudy()
			if err != nil {
				return "", err
			}
			return experiments.RenderSLA(rows), nil
		}},
		{"bs", "Extension: TPU throughput/latency vs batch size", "", "", func() (string, error) {
			var b strings.Builder
			for _, name := range []string{"MLP0", "CNN0"} {
				rows, err := experiments.BatchSweep(name, nil)
				if err != nil {
					return "", err
				}
				b.WriteString(experiments.RenderBatchSweep(rows))
			}
			return b.String(), nil
		}},
		{"quant", "Extension: int8 quantization quality vs float32", "", "", func() (string, error) {
			rows, err := experiments.QuantizationStudy()
			if err != nil {
				return "", err
			}
			return experiments.RenderQuantization(rows), nil
		}},
		{"energy", "Extension: energy per inference", "", "", func() (string, error) {
			rows, err := experiments.EnergyPerInference()
			if err != nil {
				return "", err
			}
			return experiments.RenderEnergy(rows), nil
		}},
		{"dc", "Extension: datacenter provisioning (the 'voice search' origin story)", "", "", func() (string, error) {
			for _, name := range models.Names() {
				p, err := experiments.SimulateTPU(name)
				if err != nil {
					return "", err
				}
				datacenter.SetTPUPerf(name, p.IPS)
			}
			ps, err := datacenter.Compare(datacenter.UniformScaleDemand(10e6))
			if err != nil {
				return "", err
			}
			return "fleet to serve 10M inferences/s at the datacenter mix:\n" + datacenter.Render(ps), nil
		}},
	}
}
