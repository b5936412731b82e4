package main

import (
	"encoding/json"
	"flag"
	"io"
	"strings"
	"testing"

	"dibella/internal/overlap"
	"dibella/internal/pipeline"
)

// parseParams binds a fresh flag set and parses one command line, the way
// main does; explicit is the set of flags that command line named.
func parseParams(t *testing.T, args ...string) (*runParams, map[string]bool) {
	t.Helper()
	fs := flag.NewFlagSet("dibella", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	p := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parsing %v: %v", args, err)
	}
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	return p, explicit
}

// say decodes what a rank with this command line tells the others: every
// shared flag on rank 0, only the explicitly-set ones elsewhere.
func say(t *testing.T, rank int, args ...string) map[string]string {
	t.Helper()
	p, explicit := parseParams(t, args...)
	if rank == 0 {
		explicit = nil
	}
	blob, err := p.encode(explicit)
	if err != nil {
		t.Fatal(err)
	}
	var said map[string]string
	if err := json.Unmarshal(blob, &said); err != nil {
		t.Fatal(err)
	}
	return said
}

var launcherArgs = []string{"-in", "reads.fastq", "-platform", "cori", "-nodes", "8",
	"-k", "17", "-seed-mode", "dist", "-error-rate", "0.06", "-async-exchange=false", "-ckpt-dir", "ck"}

// TestRunParamsRoundtrip: a bare follower that adopts rank 0's encoded
// flags resolves to exactly rank 0's plan.
func TestRunParamsRoundtrip(t *testing.T) {
	launcher, explicit := parseParams(t, launcherArgs...)
	want, err := launcher.resolve(explicit, false)
	if err != nil {
		t.Fatal(err)
	}
	said := say(t, 0, launcherArgs...)
	for _, local := range []string{"out", "p", "transport", "hosts", "join", "form-timeout", "breakdown"} {
		if _, ok := said[local]; ok {
			t.Errorf("per-process flag -%s shipped", local)
		}
	}
	follower, _ := parseParams(t)
	if err := follower.adopt([]map[string]string{said, {}}, 1); err != nil {
		t.Fatal(err)
	}
	got, err := follower.resolve(nil, false)
	if err != nil {
		t.Fatalf("adopted params do not resolve: %v", err)
	}
	if follower.In != "reads.fastq" || follower.Nodes != 8 || follower.CkptDir != "ck" {
		t.Errorf("adoption lost fields: %+v", follower)
	}
	if got.cfg != want.cfg || got.cfg.K != 17 || got.cfg.SeedMode != overlap.MinDistance || got.cfg.Exchange != pipeline.ExchangeSync {
		t.Errorf("adopted cfg = %+v, launcher's = %+v", got.cfg, want.cfg)
	}
	if got.platform == nil || got.platform.Name != want.platform.Name || got.ckpt == nil || got.ckpt.Dir != "ck" {
		t.Errorf("adopted plan = %+v", got)
	}
	// A flag this binary does not define cannot be adopted.
	if err := follower.adopt([]map[string]string{{"no-such-flag": "1"}, {}}, 1); err == nil {
		t.Error("unknown shipped flag adopted")
	}
}

func TestConfigFlagConflicts(t *testing.T) {
	launcher := say(t, 0, launcherArgs...)
	adopt := func(rank int, others ...map[string]string) error {
		p, _ := parseParams(t)
		return p.adopt(append([]map[string]string{launcher}, others...), rank)
	}
	// Identical explicit flags (a forked worker inheriting the launcher's
	// command line) and a bare joiner: no conflict.
	if err := adopt(1, say(t, 1, launcherArgs...), say(t, 2)); err != nil {
		t.Errorf("matching flags flagged: %v", err)
	}
	// Divergent explicit flags: each reported, naming the rank — and
	// reported identically on every rank, rank 0 included.
	diverged := say(t, 2, "-k", "19", "-in", "other.fastq", "-seed-mode", "dist")
	for rank := 0; rank < 3; rank++ {
		err := adopt(rank, say(t, 1), diverged)
		if err == nil {
			t.Fatalf("rank %d: conflicting flags adopted", rank)
		}
		for _, want := range []string{
			"rank 2: -k: this command says 19, launcher says 17",
			"rank 2: -in: this command says other.fastq, launcher says reads.fastq",
		} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("rank %d: conflict error lacks %q:\n%v", rank, want, err)
			}
		}
		if strings.Contains(err.Error(), "seed-mode") {
			t.Errorf("rank %d: agreeing -seed-mode reported:\n%v", rank, err)
		}
	}
	// An explicit flag that restates a default the launcher left alone
	// agrees; per-host flags (out, transport, p) never conflict.
	if err := adopt(1, say(t, 1, "-xdrop", "7", "-out", "x.paf", "-p", "3", "-transport", "tcp")); err != nil {
		t.Errorf("per-host flags or restated defaults flagged: %v", err)
	}
}

func TestCkptOptionsValidation(t *testing.T) {
	resolve := func(args ...string) (*runPlan, error) {
		p, explicit := parseParams(t, append([]string{"-in", "reads.fastq"}, args...)...)
		return p.resolve(explicit, false)
	}
	if plan, err := resolve(); err != nil || plan.ckpt != nil {
		t.Errorf("no ckpt flags: plan=%+v err=%v", plan, err)
	}
	if _, err := resolve("-ckpt-abort-after", "dht"); err == nil {
		t.Error("-ckpt-abort-after without -ckpt-dir accepted")
	}
	plan, err := resolve("-ckpt-dir", "ck", "-ckpt-abort-after", "dht")
	if err != nil || plan.ckpt.Dir != "ck" || plan.ckpt.AbortAfter != "dht" {
		t.Errorf("plan=%+v err=%v", plan, err)
	}
	if _, err := resolve("-ckpt-dir", "ck", "-ckpt-abort-after", "nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("bad -ckpt-abort-after: %v", err)
	}
}

func TestResumeFlagError(t *testing.T) {
	resolve := func(args ...string) error {
		p, explicit := parseParams(t, append([]string{"-resume", "ck"}, args...)...)
		_, err := p.resolve(explicit, false)
		return err
	}
	if err := resolve("-p", "3", "-async-exchange=false", "-out", "x.paf"); err != nil {
		t.Errorf("schedule flags rejected: %v", err)
	}
	if err := resolve("-k", "19"); err == nil || !strings.Contains(err.Error(), "-k has no effect") {
		t.Errorf("explicit -k with -resume: %v", err)
	}
	// The class, not a name list, decides: every output-affecting flag is
	// rejected, no other one is.
	p, _ := parseParams(t)
	p.fs.VisitAll(func(f *flag.Flag) {
		if f.Name == "resume" || p.class[f.Name] == serveOnly {
			return // restating -resume unsets it; serve-only flags need -serve-addr
		}
		err := resolve("-"+f.Name, f.DefValue)
		if rejected := err != nil; rejected != (p.class[f.Name] == outputAffecting) {
			t.Errorf("-%s (class %d) with -resume: err = %v", f.Name, p.class[f.Name], err)
		}
	})
}

func TestScheduleMutator(t *testing.T) {
	p, explicit := parseParams(t, "-in", "reads.fastq", "-async-exchange=false")
	plan, err := p.resolve(explicit, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.Config{Exchange: pipeline.ExchangeStreamed, ReplyChunk: 1, ReplyDepth: 1}
	plan.reschedule(&cfg)
	if cfg.Exchange != pipeline.ExchangeSync || !cfg.KeepAlignments {
		t.Errorf("mutated cfg: %+v", cfg)
	}
}
