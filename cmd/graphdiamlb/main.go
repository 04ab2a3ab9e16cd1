// Command graphdiamlb is the fleet front door: a thin, stateless proxy
// that gives clients one address for a graphdiam fleet. It routes every
// request the same way the daemons themselves do — dataset-placed
// requests to the dataset's rendezvous owner, job requests to the job's
// home rank, everything else to the first live daemon — so a query lands
// directly on the node whose cache and singleflight will serve it, and a
// daemon failure reroutes deterministically at the next health probe.
//
// Usage:
//
//	graphdiamlb -addr :8000 -peers http://a:8080,http://b:8080,http://c:8080
//
// The -peers list must be the same rank-ordered list the daemons were
// started with; the lb is not itself a member. Placement needs no
// coordination: lb and daemons compute identical owners from the shared
// list, and a disagreement (stale health view) costs one extra
// daemon→daemon hop, never a loop.
//
// -tenant-rate/-tenant-burst enforce per-tenant admission control at the
// edge (X-Tenant header, 429 + Retry-After); forwarded requests carry
// X-Graphdiam-Edge so daemons do not charge the tenant twice. Every
// request is stamped with an X-Request-Id (minted here unless the client
// sent one) that survives all routed hops for log correlation.
//
// The lb serves its own /healthz (process liveness), /readyz (ready when
// at least one daemon is live), /v2/fleet (its current placement view),
// and /metrics (Prometheus text exposition of the edge's per-route
// request counters, proxy retry/failover traffic, probe flips, and Go
// runtime gauges); every other path is proxied. -debug-addr starts a
// second, private listener carrying net/http/pprof plus a /metrics
// mirror — off by default, never to be exposed publicly.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"graphdiam/cmd/internal/cli"
	"graphdiam/internal/fleet"
	"graphdiam/internal/obs"
)

func main() {
	var (
		addr         = flag.String("addr", ":8000", "listen address")
		peerList     = flag.String("peers", "", "comma-separated base URLs of every fleet daemon in rank order (required)")
		probeEvery   = flag.Duration("probe-interval", 2*time.Second, "daemon health-probe cadence")
		maxBody      = flag.Int64("max-body", 64<<20, "max request body bytes")
		tenantRate   = flag.Float64("tenant-rate", 0, "per-tenant admitted jobs/second (0 = admission control disabled)")
		tenantBurst  = flag.Float64("tenant-burst", 0, "per-tenant job burst capacity (0 = max(1, -tenant-rate); requires -tenant-rate)")
		drain        = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
		readHeaderTO = flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
		idleTO       = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
		quiet        = flag.Bool("quiet", false, "disable request logging")
		debugAddr    = flag.String("debug-addr", "", "private listen address for pprof and a /metrics mirror, e.g. localhost:6061 (empty = disabled; never expose publicly)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "graphdiamlb: ", log.LstdFlags)
	slogger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *peerList == "" {
		logger.Fatalf("-peers is required")
	}
	if *tenantRate < 0 {
		logger.Fatalf("-tenant-rate must be non-negative")
	}
	if *tenantBurst != 0 && *tenantRate == 0 {
		logger.Fatalf("-tenant-burst requires -tenant-rate")
	}
	if *probeEvery <= 0 {
		logger.Fatalf("-probe-interval must be positive")
	}

	// The lb's registry mirrors the daemons' family names (http + fleet),
	// so one scrape config and one dashboard cover both tiers.
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	fleetMetrics := fleet.NewMetrics(reg)

	table, err := fleet.NewTable(strings.Split(*peerList, ","), -1, fleet.TableOptions{
		Interval: *probeEvery,
		Log:      slogger,
		Metrics:  fleetMetrics,
	})
	if err != nil {
		logger.Fatalf("bad -peers: %v", err)
	}
	table.Start()
	defer table.Close()

	lb := &fleet.FrontDoor{
		Table:    table,
		Proxy:    &fleet.Proxy{SelfRank: -1, Table: table, Log: slogger, Metrics: fleetMetrics},
		MaxBody:  *maxBody,
		Metrics:  obs.NewHTTPMetrics(reg),
		Registry: reg,
	}
	if *tenantRate > 0 {
		lb.Quotas = fleet.NewQuotas(*tenantRate, *tenantBurst)
		logger.Printf("admission control: %g jobs/s per tenant", *tenantRate)
	}
	if !*quiet {
		lb.Log = slogger
	}

	defer cli.ServeDebug(*debugAddr, reg, *readHeaderTO, logger)()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           lb,
		ReadHeaderTimeout: *readHeaderTO,
		IdleTimeout:       *idleTO,
		// No WriteTimeout: proxied SSE job streams live as long as the job.
	}
	cli.Serve(srv, *drain, nil, logger,
		fmt.Sprintf("front door on %s for %d-daemon fleet", *addr, len(table.Members())))
}
