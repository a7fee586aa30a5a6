// HTTP exposure: a Prometheus-text + JSON metrics endpoint and a pprof
// server, both started on demand by the command-line front ends.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format: one `# HELP` + `# TYPE` header per metric family, sorted by family
// name. Counters are counters, gauges are gauges, and histograms are real
// histograms (`<name>_bucket{le="..."}` cumulative series in seconds, only
// the non-empty buckets, plus `_sum`/`_count`) followed by convenience
// quantile gauges (`<name>_p99_ns` etc., same values as the JSON snapshot)
// so p99 is scrapeable without a PromQL histogram_quantile.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Walk typed families straight off the registry maps instead of the
	// flattened Snapshot: the exposition needs each family's kind and, for
	// histograms, its buckets.
	type family struct {
		name string
		emit func(io.Writer, string) error
	}
	r.mu.Lock()
	fams := make([]family, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		c := c
		fams = append(fams, family{name, func(w io.Writer, n string) error {
			_, err := fmt.Fprintf(w, "# HELP %s Cumulative counter %s.\n# TYPE %s counter\n%s %v\n",
				n, n, n, n, float64(c.Load()))
			return err
		}})
	}
	for name, g := range r.gauges {
		g := g
		fams = append(fams, family{name, func(w io.Writer, n string) error {
			_, err := fmt.Fprintf(w, "# HELP %s Gauge %s.\n# TYPE %s gauge\n%s %v\n",
				n, n, n, n, g.Load())
			return err
		}})
	}
	for name, h := range r.histograms {
		h := h
		fams = append(fams, family{name, func(w io.Writer, n string) error {
			if _, err := fmt.Fprintf(w, "# HELP %s Latency histogram %s (seconds).\n# TYPE %s histogram\n", n, n, n); err != nil {
				return err
			}
			for _, b := range h.cumulative(nil) {
				if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%v\"} %d\n", n, float64(b.upperNS)/1e9, b.cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %v\n%s_sum %v\n%s_count %v\n",
				n, float64(h.Count()), n, h.Total().Seconds(), n, float64(h.Count())); err != nil {
				return err
			}
			for _, hq := range histQuantiles {
				qn := n + hq.suffix
				if _, err := fmt.Fprintf(w, "# HELP %s %v-quantile of %s in nanoseconds.\n# TYPE %s gauge\n%s %v\n",
					qn, hq.q, n, qn, qn, float64(h.Quantile(hq.q).Nanoseconds())); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if err := f.emit(w, f.name); err != nil {
			return err
		}
	}
	return nil
}

// setJSONHeaders stamps the headers every live-JSON endpoint carries:
// explicit media type with charset, content sniffing disabled, caching off.
// Regression-tested across all endpoints by TestEndpointContentTypes.
func setJSONHeaders(h http.Header) {
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("X-Content-Type-Options", "nosniff")
	h.Set("Cache-Control", "no-store")
}

// Handler returns an http.Handler serving the registry: Prometheus text by
// default, the JSON snapshot when the request asks for ?format=json (the
// expvar-style machine-readable form).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			setJSONHeaders(w.Header())
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(r.Snapshot())
			return
		}
		h := w.Header()
		h.Set("Content-Type", "text/plain; version=0.0.4")
		h.Set("X-Content-Type-Options", "nosniff")
		h.Set("Cache-Control", "no-store")
		r.WritePrometheus(w)
	})
}

// serve binds addr and serves mux in a background goroutine, returning the
// server (caller closes it) and the bound address (useful with ":0").
func serve(addr string, mux *http.ServeMux) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// ServeMetrics starts an HTTP server on addr exposing the registry at
// /metrics (Prometheus text, JSON with ?format=json) and a JSON snapshot at
// /vars. Extra mount functions, when given, add caller endpoints to the same
// mux (ibpserved and ibprouter hang /debug/flightrecorder here). It returns
// the running server and its bound address; the caller owns shutdown via
// srv.Close.
func ServeMetrics(addr string, r *Registry, mounts ...func(*http.ServeMux)) (*http.Server, string, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	for _, m := range mounts {
		m(mux)
	}
	mux.HandleFunc("/vars", func(w http.ResponseWriter, _ *http.Request) {
		setJSONHeaders(w.Header())
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
	return serve(addr, mux)
}

// ServePprof starts a net/http/pprof server on addr (profiles under
// /debug/pprof/). It returns the running server and its bound address; the
// caller owns shutdown via srv.Close.
func ServePprof(addr string) (*http.Server, string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return serve(addr, mux)
}
