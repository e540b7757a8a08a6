// Command semcli is the client for the edged daemon: it sends messages
// through the semantic pipeline and prints the restored text with
// transport statistics.
//
// Usage:
//
//	semcli [-addr localhost:7060] [-user alice] -text "the server is down"
//	semcli -stats
//	echo "the doctor ordered a scan" | semcli -user bob
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/rpc"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("semcli: %v", err)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", "localhost:7060", "edged address")
		user     = flag.String("user", "cli", "user name (drives individual models)")
		text     = flag.String("text", "", "message to transmit (default: read lines from stdin)")
		deadline = flag.Duration("deadline", 0, "per-request deadline, forwarded to the daemon's admission gate (0 = none)")
		stats    = flag.Bool("stats", false, "print daemon statistics and exit")
	)
	flag.Parse()

	cl, err := rpc.Dial(*addr)
	if err != nil {
		return err
	}
	defer cl.Close()

	if *stats {
		s, err := cl.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("messages:      %d\n", s.Messages)
		fmt.Printf("sender hits:   %.1f%%\n", 100*s.SenderHitRate)
		fmt.Printf("cached models: %d (%d bytes)\n", s.CachedModels, s.CacheUsedBytes)
		fmt.Printf("decoder syncs: %d (%d bytes, %d updates failed)\n", s.SyncCount, s.SyncBytes, s.UpdateFailures)
		if s.MemoLookups > 0 {
			fmt.Printf("decode memo:   %d rows, %.1f%% hits (%d inserted, %d replaced)\n",
				s.MemoLookups, 100*s.MemoStats.HitRate(), s.MemoInserts, s.MemoReplaced)
		}
		if sv := s.Serve; sv != nil {
			fmt.Printf("in-flight:     %d (%d shed)\n", sv.InFlight, sv.Shed)
			fmt.Printf("service:       p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n",
				sv.LatencyP50Ms, sv.LatencyP95Ms, sv.LatencyP99Ms)
			fmt.Printf("queue wait:    p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n",
				sv.QueueWaitP50Ms, sv.QueueWaitP95Ms, sv.QueueWaitP99Ms)
			fmt.Printf("update:        p50 %.2f ms  p99 %.2f ms\n", sv.UpdateP50Ms, sv.UpdateP99Ms)
		}
		return nil
	}

	send := func(msg string) error {
		ctx := context.Background()
		if *deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *deadline)
			defer cancel()
		}
		resp, err := cl.TransmitContext(ctx, *user, msg)
		if err != nil {
			return err
		}
		if resp.Shed {
			return fmt.Errorf("request shed by daemon: %s", resp.Error)
		}
		if !resp.OK {
			return fmt.Errorf("daemon error: %s", resp.Error)
		}
		fmt.Printf("restored : %s\n", resp.Restored)
		fmt.Printf("domain   : %s   payload: %d B   latency: %.2f ms   mismatch: %.3f\n",
			resp.SelectedDomain, resp.PayloadBytes, resp.LatencyMs, resp.Mismatch)
		if resp.Individual {
			fmt.Println("model    : user-specific individual model")
		}
		if resp.UpdateFired {
			fmt.Println("update   : decoder update shipped to receiver edge")
		}
		return nil
	}

	if *text != "" {
		return send(*text)
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if err := send(line); err != nil {
			return err
		}
	}
	return sc.Err()
}
