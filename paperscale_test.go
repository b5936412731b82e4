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
//
// With -paperscale-base REV it also checks REV out beside the tree (git
// worktree add --detach), builds that tree's dibella, and alternates the
// two at p=2 in process, -paperscale-pairs times, each pair's first run
// REV's and this tree's in turn; it reports the medians of each stage's
// wall, the slowest rank's kernel wall, the run wall and the peak RSS, with
// each pair's ratio (this tree's over REV's), their median and the pairs
// this tree won, and gates only that both trees write the same PAF:
//
//	go test -run TestPaperScale -paperscale -paperscale-base HEAD~1 -timeout 20m .

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"dibella/internal/evalx"
	"dibella/internal/paf"
	"dibella/internal/seqgen"
)

var (
	paperScale      = flag.Bool("paperscale", false, "run TestPaperScale: the paper's E. coli 30x at scale 1 (minutes, over 1 GB)")
	paperScaleBase  = flag.String("paperscale-base", "", "with -paperscale, alternate this git revision's dibella with this tree's at p=2 in process, and report the pairs")
	paperScalePairs = flag.Int("paperscale-pairs", 3, "with -paperscale-base, how many pairs of runs")
)

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
	kernel time.Duration // the slowest rank's local alignment wall, from the rate line
}

// run runs bin on the reads with -breakdown and r's arguments, writing the
// PAF to out, and fills in what the run measured.
func (r *paperRun) run(t *testing.T, bin, reads, out string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-in", reads, "-out", out, "-breakdown"}, r.args...)...)
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
	if m := kernelWall.FindStringSubmatch(r.rate); m != nil {
		r.kernel, _ = time.ParseDuration(m[1])
	}
	if r.paf, err = os.ReadFile(out); err != nil {
		t.Fatal(err)
	}
}

// kernelWall picks the slowest rank's local wall out of the alignment rate
// line ("..., 19.2s-20.1s local wall, ...").
var kernelWall = regexp.MustCompile(`-(\S+) local wall`)

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
		r.run(t, dibella, reads, filepath.Join(dir, fmt.Sprintf("run%d.paf", i)))
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
	if *paperScaleBase != "" {
		summary += pairedRuns(t, dir, reads, dibella, runs[0].paf, *paperScaleBase, *paperScalePairs)
	}
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

// pairedRuns builds rev's dibella in a worktree beside the tree and
// alternates it with this tree's (change) at p=2 in process, pairs times,
// base first in the odd pairs and change first in the even ones, so a host
// that drifts slower through the runs favours neither. It fails the test if
// any run's PAF differs from want, and renders the pairs: for each stage's
// wall, the slowest rank's kernel wall, the run wall and the peak RSS, the
// two medians, each pair's ratio (change over base), their median and the
// pairs change won.
func pairedRuns(t *testing.T, dir, reads, change string, want []byte, rev string, pairs int) string {
	wt := filepath.Join(dir, "base")
	if out, err := exec.Command("git", "worktree", "add", "--detach", wt, rev).CombinedOutput(); err != nil {
		t.Fatalf("git worktree add %s: %v\n%s", rev, err, out)
	}
	t.Cleanup(func() {
		if out, err := exec.Command("git", "worktree", "remove", "--force", wt).CombinedOutput(); err != nil {
			t.Errorf("git worktree remove: %v\n%s", err, out)
		}
	})
	base := filepath.Join(dir, "dibella-base")
	build := exec.Command("go", "build", "-o", base, "./cmd/dibella")
	build.Dir = wt
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building %s's dibella: %v\n%s", rev, err, out)
	}

	bins, names := [2]string{base, change}, [2]string{"base", "change"}
	var sides [2][]*paperRun
	for i := range pairs {
		for k := range 2 {
			side := (i + k) % 2
			r := &paperRun{name: fmt.Sprintf("%s pair %d", names[side], i+1), args: []string{"-p", "2", "-transport", "mem"}}
			r.run(t, bins[side], reads, filepath.Join(dir, "paired.paf"))
			if !bytes.Equal(r.paf, want) {
				t.Errorf("%s PAF (%d bytes) differs from the p=1 run's (%d bytes)", r.name, len(r.paf), len(want))
			}
			r.paf = nil
			sides[side] = append(sides[side], r)
		}
	}

	type metric struct {
		name string
		of   func(*paperRun) float64
	}
	var metrics []metric
	for k, st := range sides[0][0].stages {
		metrics = append(metrics, metric{st[0] + " wall (s)", func(r *paperRun) float64 {
			if k >= len(r.stages) {
				return 0
			}
			d, _ := time.ParseDuration(r.stages[k][1])
			return d.Seconds()
		}})
	}
	metrics = append(metrics,
		metric{"slowest rank's kernel wall (s)", func(r *paperRun) float64 { return r.kernel.Seconds() }},
		metric{"run wall (s)", func(r *paperRun) float64 { return r.wall.Seconds() }},
		metric{"peak RSS (MiB)", func(r *paperRun) float64 { return r.maxRSS }})

	var b strings.Builder
	fmt.Fprintf(&b, "\n## Paired with %s: p=2 in process, %d pairs, base first in the odd ones\n\n", rev, pairs)
	b.WriteString("| | base median | change median | pair ratios | median ratio | pairs won |\n|---|---|---|---|---|---|\n")
	for _, m := range metrics {
		var bv, cv, ratio []float64
		var each []string
		won := 0
		for i := range pairs {
			x, y := m.of(sides[0][i]), m.of(sides[1][i])
			bv, cv = append(bv, x), append(cv, y)
			if x > 0 {
				ratio = append(ratio, y/x)
				each = append(each, fmt.Sprintf("%.3f", y/x))
			}
			if y < x {
				won++
			}
		}
		fmt.Fprintf(&b, "| %s | %.3f | %.3f | %s | %.3f | %d of %d |\n", m.name, median(bv), median(cv), strings.Join(each, " "), median(ratio), won, pairs)
	}
	return b.String()
}

// median is the middle of vs, or the mean of the two middle values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
