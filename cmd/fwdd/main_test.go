package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestMetricsMuxServesPprof: the -metrics listener serves the pprof index
// and a named profile beside /metrics.
func TestMetricsMuxServesPprof(t *testing.T) {
	srv := core.NewServer(core.Config{})
	defer srv.Close()
	ts := httptest.NewServer(metricsMux(srv))
	defer ts.Close()
	for path, want := range map[string]string{
		"/debug/pprof/":                  "goroutine",
		"/debug/pprof/goroutine?debug=1": "goroutine profile",
		"/metrics":                       "# HELP",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s: %d, body without %q", path, resp.StatusCode, want)
		}
	}
}
