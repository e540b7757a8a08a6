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
		s.Print(os.Stdout)
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
