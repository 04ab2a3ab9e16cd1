package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"graphdiam/internal/dataset"
	"graphdiam/internal/fleet"
	"graphdiam/internal/obs"
	"graphdiam/internal/server"
	"graphdiam/internal/store"
)

// daemon is one in-process graphdiamd: the same catalog, store, fleet and
// server wiring as cmd/graphdiamd, served over a loopback listener.
type daemon struct {
	url    string
	dir    string
	reg    *obs.Registry
	cat    *dataset.Catalog
	st     *store.Store
	srv    *server.Server
	hs     *http.Server
	tab    *fleet.Table // nil outside a fleet
	fcache *fleet.Cache // nil outside a fleet
	served chan error
}

// startDaemons boots n daemons under root, each with its own catalog
// directory. With n > 1 they form one fleet: every daemon knows every
// URL, owner-routes by dataset name and shares results through the fleet
// cache, exactly as graphdiamd does with -peers.
func startDaemons(root string, n int) ([]*daemon, error) {
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(listeners)
			return nil, err
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	ds := make([]*daemon, 0, n)
	for i := 0; i < n; i++ {
		d, err := newDaemon(filepath.Join(root, fmt.Sprintf("node%d", i)), urls, i)
		if err != nil {
			closeListeners(listeners[i:])
			stopDaemons(ds)
			return nil, err
		}
		d.serve(listeners[i])
		ds = append(ds, d)
	}
	if n > 1 {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, d := range ds {
			d.tab.ProbeOnce(ctx)
			for r := range urls {
				if !d.tab.Live(r) {
					stopDaemons(ds)
					return nil, fmt.Errorf("fleet member %s does not see %s live", d.url, urls[r])
				}
			}
			d.tab.Start()
		}
	}
	return ds, nil
}

func closeListeners(ls []net.Listener) {
	for _, l := range ls {
		if l != nil {
			l.Close()
		}
	}
}

func newDaemon(dir string, urls []string, rank int) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{url: urls[rank], dir: dir, reg: obs.NewRegistry()}
	storeMetrics := store.NewMetrics(d.reg)
	fleetMetrics := fleet.NewMetrics(d.reg)
	cat, err := dataset.Open(dir, dataset.Options{Metrics: dataset.NewCatalogMetrics(d.reg)})
	if err != nil {
		return nil, fmt.Errorf("open catalog: %w", err)
	}
	d.cat = cat
	scfg := store.Config{Catalog: cat, Metrics: storeMetrics}
	cfg := server.Config{Datasets: cat, Registry: d.reg, FleetMetrics: fleetMetrics}
	if len(urls) > 1 {
		tab, err := fleet.NewTable(urls, rank, fleet.TableOptions{Interval: 5 * time.Second, Metrics: fleetMetrics})
		if err != nil {
			cat.Close()
			return nil, err
		}
		d.tab = tab
		d.fcache = fleet.NewCache(tab, fleet.CacheOptions{Replicas: 1, Metrics: fleetMetrics})
		scfg.FleetCache = d.fcache
		scfg.Distributed = &store.DistributedConfig{Rank: rank, Peers: urls}
		cfg.Fleet = tab
		cfg.Replicas = 1
	}
	d.st = store.New(scfg)
	d.srv = server.New(d.st, cfg)
	return d, nil
}

func (d *daemon) serve(l net.Listener) {
	d.hs = &http.Server{Handler: d.srv, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(l) }()
}

// stop shuts the daemon down in graphdiamd's order and waits for its
// serving goroutine to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.st.Close()
	if d.fcache != nil {
		d.fcache.Close()
	}
	if d.tab != nil {
		d.tab.Close()
	}
	if cerr := d.cat.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// stopDaemons stops every daemon and returns the first error.
func stopDaemons(ds []*daemon) error {
	var first error
	for _, d := range ds {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ownerIndex returns the index in ds of the fleet owner of a dataset
// name (0 outside a fleet).
func ownerIndex(ds []*daemon, name string) (int, error) {
	if ds[0].tab == nil {
		return 0, nil
	}
	m, ok := ds[0].tab.Owner(name)
	if !ok {
		return 0, fmt.Errorf("no live owner for dataset %q", name)
	}
	for i, d := range ds {
		if d.url == m.URL {
			return i, nil
		}
	}
	return 0, fmt.Errorf("owner %s of %q is not a local daemon", m.URL, name)
}
