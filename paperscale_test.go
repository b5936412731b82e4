package dibella

// The paper's first data set at its own size: E. coli 30x, scale 1, run
// end to end by the built binaries on one host. Behind a test-only flag,
// because it takes minutes and over a gigabyte:
//
//	go test -run TestPaperScale -paperscale -timeout 15m .
//
// It gates only what is noiseless — the PAF is the same at every world
// size and transport, and recall and precision hold their floors — and
// reports the rest (wall per stage, cells, Mcells/s a rank, peak RSS,
// exchange bytes per stage, the p2/p1 speedup) to the log and, under
// GitHub Actions, to the job summary.

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dibella/internal/evalx"
	"dibella/internal/paf"
	"dibella/internal/seqgen"
)

var paperScale = flag.Bool("paperscale", false, "run TestPaperScale: the paper's E. coli 30x at scale 1 (minutes, over 1 GB)")

const (
	// paperScaleFactor is the genome scale the run uses: the whole genome.
	paperScaleFactor = 1.0
	// paperMinOverlap is the truth's overlap floor, seqgen's -truth default.
	paperMinOverlap = 2000
	// The floors exact seeding holds at scale 1, seed 1, truncated to three
	// places: recall 0.96679, and precision 0.82420 counting a near miss (a
	// pair that overlaps by less than the truth's floor) as an error, which
	// evalx's Precision (0.930) does not.
	paperRecallFloor    = 0.966
	paperPrecisionFloor = 0.824
)

// paperRun is one dibella run of the paper-scale input.
type paperRun struct {
	name   string
	args   []string
	paf    []byte
	wall   time.Duration // the process's, launch to exit
	maxRSS float64       // MiB, the largest process of the run
	stages [][3]string   // -breakdown's stage rows: name, wall, exchange bytes
	rate   string        // -breakdown's alignment rate line
}

func TestPaperScale(t *testing.T) {
	if !*paperScale {
		t.Skip("the paper-scale run takes -paperscale")
	}
	dir := t.TempDir()
	seqgenBin := buildTool(t, dir, "./cmd/seqgen")
	dibella := buildTool(t, dir, "./cmd/dibella")

	reads := filepath.Join(dir, "reads.fastq")
	truth := filepath.Join(dir, "truth.tsv")
	if out, err := exec.Command(seqgenBin, "-preset", "30x", "-scale", fmt.Sprint(paperScaleFactor), "-seed", "1",
		"-truth", truth, "-out", reads).CombinedOutput(); err != nil {
		t.Fatalf("seqgen: %v\n%s", err, out)
	}

	runs := []*paperRun{
		{name: "p=1", args: []string{"-p", "1"}},
		{name: "p=2 mem", args: []string{"-p", "2", "-transport", "mem"}},
		{name: "p=2 tcp", args: []string{"-p", "2", "-transport", "tcp"}},
	}
	for i, r := range runs {
		out := filepath.Join(dir, fmt.Sprintf("run%d.paf", i))
		cmd := exec.Command(dibella, append([]string{"-in", reads, "-out", out, "-breakdown"}, r.args...)...)
		start := time.Now()
		log, err := cmd.CombinedOutput()
		r.wall = time.Since(start)
		if err != nil {
			t.Fatalf("dibella %s: %v\n%s", r.name, err, log)
		}
		// A tcp launcher is rank 0 and waits for the worker it forked, so
		// its rusage covers the tree; Maxrss is the largest, in KiB.
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.maxRSS = float64(ru.Maxrss) / 1024
		}
		r.stages, r.rate = parseBreakdown(log)
		if r.paf, err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
	}
	identical := true
	for _, r := range runs[1:] {
		if !bytes.Equal(r.paf, runs[0].paf) {
			identical = false
			t.Errorf("%s PAF (%d bytes) differs from %s's (%d bytes)", r.name, len(r.paf), runs[0].name, len(runs[0].paf))
		}
	}

	// The generator is deterministic: the data set regenerated here is the
	// one the binary wrote, which the truth file's pair count confirms.
	ds, err := seqgen.Generate(seqgen.EColi30x(paperScaleFactor, 1))
	if err != nil {
		t.Fatal(err)
	}
	truthFile, err := os.ReadFile(truth)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bytes.Count(truthFile, []byte("\n")), len(ds.TrueOverlaps(paperMinOverlap)); got != want {
		t.Fatalf("truth file holds %d pairs, the regenerated data set %d: not the same data set", got, want)
	}
	score, err := scorePAF(ds, runs[0].paf)
	if err != nil {
		t.Fatal(err)
	}
	strict := float64(score.TruePositives) / float64(score.Predicted)
	if score.Recall() < paperRecallFloor || strict < paperPrecisionFloor {
		t.Errorf("recall %.5f / precision %.5f (near misses as errors), floors %.3f / %.3f", score.Recall(), strict, paperRecallFloor, paperPrecisionFloor)
	}

	summary := paperSummary(runs, identical, score)
	t.Log("\n" + summary)
	if path := os.Getenv("GITHUB_STEP_SUMMARY"); path != "" {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(summary); err != nil {
			t.Fatal(err)
		}
	}
}

// parseBreakdown picks -breakdown's stage rows and alignment rate line out
// of a run's output.
func parseBreakdown(out []byte) (stages [][3]string, rate string) {
	inTable := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "stage "):
			inTable = true
		case inTable && len(f) > 0 && f[0] == "total":
			inTable = false
		case inTable && len(f) >= 7 && !strings.HasPrefix(f[0], "---"):
			stages = append(stages, [3]string{f[0], f[1], f[6]})
		case strings.HasPrefix(line, "alignment rate: "):
			rate = strings.TrimPrefix(line, "alignment rate: ")
		}
	}
	return stages, rate
}

// scorePAF scores a PAF's pairs, mapped to read IDs by name, against the
// data set's true overlaps.
func scorePAF(ds *seqgen.Dataset, b []byte) (evalx.Result, error) {
	ids := make(map[string]uint32, len(ds.Reads))
	for i, r := range ds.Reads {
		ids[r.Name] = uint32(i)
	}
	recs, err := paf.Parse(bytes.NewReader(b))
	if err != nil {
		return evalx.Result{}, err
	}
	pairs := make([]evalx.Pair, 0, len(recs))
	for _, r := range recs {
		a, okA := ids[r.QName]
		c, okC := ids[r.TName]
		if !okA || !okC {
			return evalx.Result{}, fmt.Errorf("PAF names a read the generator did not make: %s / %s", r.QName, r.TName)
		}
		pairs = append(pairs, evalx.Canon(a, c))
	}
	return evalx.Evaluate(ds, pairs, paperMinOverlap), nil
}

// paperSummary renders the runs as the job summary's Markdown.
func paperSummary(runs []*paperRun, identical bool, score evalx.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Paper scale: E. coli 30x, scale %g, seed 1\n\n", paperScaleFactor)
	fmt.Fprintf(&b, "PAF identical across runs: %t. Scored against the >= %d bp truth: %s; precision with near misses as errors %.3f\n\n",
		identical, paperMinOverlap, score, float64(score.TruePositives)/float64(score.Predicted))
	b.WriteString("| run | wall | peak RSS | speedup over p=1 | alignment rate |\n|---|---|---|---|---|\n")
	for _, r := range runs {
		fmt.Fprintf(&b, "| %s | %.1f s | %.0f MiB | %.2f | %s |\n", r.name, r.wall.Seconds(), r.maxRSS,
			runs[0].wall.Seconds()/r.wall.Seconds(), r.rate)
	}
	b.WriteString("\n| stage | ")
	for _, r := range runs {
		fmt.Fprintf(&b, "%s wall | %s exchange bytes | ", r.name, r.name)
	}
	b.WriteString("\n|---|" + strings.Repeat("---|---|", len(runs)) + "\n")
	for i, st := range runs[0].stages {
		fmt.Fprintf(&b, "| %s | ", st[0])
		for _, r := range runs {
			if i < len(r.stages) {
				fmt.Fprintf(&b, "%s | %s | ", r.stages[i][1], r.stages[i][2])
			} else {
				b.WriteString("- | - | ")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
