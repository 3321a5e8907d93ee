// Command lakecoord fronts a fleet of navserver shards: it routes
// every request by consistent-hash placement — (lake, dim) for
// navigation, (lake, q) for search — over the shard map in -map, fans
// /batch/suggest and /batch/search out across shards, and merges the
// answers position-stably. A dead shard degrades exactly its own items
// (per-item errors plus the X-Fleet-Degraded header), never the whole
// request.
//
//	lakecoord -map fleet.json [-addr :7000] [-map-poll 5s]
//	          [-max-inflight 256] [-check-interval 2s] [-timeout 5s]
//	          [-retries 1] [-retry-base 50ms]
//
// Each shard call runs on the caller's goroutine: up to 1+retries
// attempts with doubling backoff, each bounded by -timeout.
//
// The shard map file is the unit of fleet change: with -map-poll the
// coordinator re-reads it on modification and swaps the ring in
// atomically; a map that fails to parse or validate is logged and the
// previous map keeps serving. /admin/fleet reports per-shard health
// and serving generation; /readyz is ready while at least one shard is
// healthy.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"lakenav/internal/fleet"
	"lakenav/internal/httpx"
)

func main() {
	mapPath := flag.String("map", "", "shard map JSON path (required)")
	addr := flag.String("addr", ":7000", "listen address")
	mapPoll := flag.Duration("map-poll", 0, "re-read -map on modification at this interval; 0 disables")
	maxInflight := flag.Int("max-inflight", 256, "maximum concurrently served requests before shedding with 503")
	checkInterval := flag.Duration("check-interval", 2*time.Second, "active shard health-probe period")
	timeout := flag.Duration("timeout", 5*time.Second, "per-attempt shard request timeout")
	retries := flag.Int("retries", 1, "extra attempts after a transport error (HTTP error statuses are answers, not failures)")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "first retry backoff; doubles per retry")
	flag.Parse()
	if *mapPath == "" {
		log.Fatal("lakecoord: missing -map")
	}

	m, err := fleet.LoadShardMap(*mapPath)
	if err != nil {
		log.Fatal("lakecoord: ", err)
	}
	coord := fleet.New(fleet.Options{
		MaxInflight:   *maxInflight,
		CheckInterval: *checkInterval,
		Client: fleet.ClientOptions{
			Timeout:   *timeout,
			Retries:   *retries,
			RetryBase: *retryBase,
		},
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// The first signal starts the drain; un-registering then lets a
	// second one kill the process outright.
	context.AfterFunc(ctx, stop)

	if err := coord.SetMap(ctx, m); err != nil {
		log.Fatal("lakecoord: ", err)
	}
	log.Printf("serving %d shards from %s", len(m.Shards), *mapPath)

	// pollWG joins the map-poll loop on shutdown, mirroring navserver's
	// background-build join: cancel, wait, then return.
	var pollWG sync.WaitGroup
	if *mapPoll > 0 {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			pollMap(ctx, coord, *mapPath, *mapPoll)
		}()
	}

	if err := httpx.Serve(ctx, *addr, coord.Handler()); err != nil {
		log.Fatal("lakecoord: ", err)
	}
	pollWG.Wait()
	coord.Close()
	log.Print("bye")
}

// pollMap watches the shard map file by modification time and swaps a
// re-validated map in on change. A file that vanishes or fails to
// parse keeps the previous map serving — an operator mid-edit must
// never take the fleet down.
func pollMap(ctx context.Context, coord *fleet.Coordinator, path string, every time.Duration) {
	lastMod := time.Time{}
	if fi, err := os.Stat(path); err == nil {
		lastMod = fi.ModTime()
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		fi, err := os.Stat(path)
		if err != nil || !fi.ModTime().After(lastMod) {
			continue
		}
		lastMod = fi.ModTime()
		m, err := fleet.LoadShardMap(path)
		if err != nil {
			log.Printf("lakecoord: map reload skipped: %v", err)
			continue
		}
		if err := coord.SetMap(ctx, m); err != nil {
			log.Printf("lakecoord: map reload skipped: %v", err)
			continue
		}
		log.Printf("shard map reloaded: %d shards", len(m.Shards))
	}
}
