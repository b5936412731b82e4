// Command dibella-query is the client for dibella's serve mode: it sends
// FASTQ reads to a resident alignment daemon (`dibella -serve-addr ...`)
// as one or more query batches and writes the returned PAF records.
//
// Usage:
//
//	dibella-query -addr 127.0.0.1:7913 -in queries.fastq
//	dibella-query -addr 127.0.0.1:7913 -in q.fastq -batch 64 -out hits.paf
//	dibella-query -addr 127.0.0.1:7913 -in q.fastq -tenant alice -shutdown
//	dibella-query -addr 127.0.0.1:7913 -shutdown          # stop the daemon
//
// Each batch is answered with the PAF rows a batch-mode dibella run over
// (indexed reads + batch) would emit for pairs involving a batch read.
//
// Exit status: 0 on success, 1 on transport or I/O failure, 2 on usage
// errors, 4 when the daemon rejects a request with a typed admission
// reason (queue-full, bad-tenant, too-large, empty-batch,
// shutting-down) — the sentinel name is printed on stderr so scripts
// can branch on it.
package main

import (
	"flag"
	"fmt"
	"os"

	"dibella/internal/fastq"
	"dibella/internal/pipeline"
	"dibella/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "", "daemon frontend address (required)")
		in       = flag.String("in", "", "FASTQ/FASTA query reads (required unless only -shutdown)")
		out      = flag.String("out", "", "output PAF file (default: stdout)")
		tenant   = flag.String("tenant", "", "tenant token (required when the daemon has a -serve-tenants allow list)")
		batch    = flag.Int("batch", 0, "split the input into batches of this many reads (0: one batch)")
		timeout  = flag.Duration("timeout", 0, "bound on the dial and on each request/response round trip (0: none)")
		shutdown = flag.Bool("shutdown", false, "after the queries (if any), ask the daemon to drain and exit")
		quiet    = flag.Bool("quiet", false, "suppress per-batch progress lines")
	)
	flag.Parse()

	if *addr == "" {
		usageError("-addr is required")
	}
	if *in == "" && !*shutdown {
		usageError("-in is required (or -shutdown to only stop the daemon)")
	}
	if *batch < 0 {
		usageError("-batch must be non-negative (0 sends one batch), got %d", *batch)
	}
	if *timeout < 0 {
		usageError("-timeout must be non-negative, got %v", *timeout)
	}

	cl, err := serve.DialTimeout(*addr, *timeout)
	if err != nil {
		fatal(err)
	}
	defer cl.Close()

	if *in != "" {
		reads, err := fastq.ReadFile(*in)
		if err != nil {
			fatal(err)
		}
		queries := make([]pipeline.QueryRead, len(reads))
		for i, r := range reads {
			queries[i] = pipeline.QueryRead{Name: r.Name, Seq: r.Seq}
		}
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		size := len(queries)
		if *batch > 0 {
			size = *batch
		}
		for lo := 0; lo < len(queries); lo += size {
			hi := lo + size
			if hi > len(queries) {
				hi = len(queries)
			}
			res, err := cl.Query(*tenant, queries[lo:hi])
			if err != nil {
				fatal(err)
			}
			if _, err := w.Write(res.PAF); err != nil {
				fatal(err)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "batch %d..%d: %d records (waited %.3fs, modeled %.4fs)\n",
					lo, hi-1, res.Records, res.QueueWaitSecs, res.VirtualSeconds)
			}
		}
	}
	if *shutdown {
		if err := cl.Shutdown(*tenant); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Fprintln(os.Stderr, "daemon acknowledged shutdown")
		}
	}
}

// fatal reports err and exits: typed daemon rejections exit 4 with the
// sentinel name first on stderr, everything else (transport, I/O) exits 1.
func fatal(err error) {
	if code, ok := serve.RejectionCode(err); ok {
		fmt.Fprintf(os.Stderr, "dibella-query: rejected (%s): %v\n", code, err)
		os.Exit(4)
	}
	fmt.Fprintln(os.Stderr, "dibella-query:", err)
	os.Exit(1)
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dibella-query: %s\n", fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}
