package server

// Surface goldens: the names `stats` prints, in order, and the families,
// help text and sample names (labels included, values stripped) /metrics
// renders, for the two servers the observability plane is written
// against — malloc without persistence and anchorage with a pack log.
// memcached clients parse `stats` by name and dashboards query /metrics
// by family, so any change to either is a diff to testdata/*.golden.
// Regenerate with `go test ./internal/server -run TestSurfaceGoldens -update`.

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"alaska/internal/kv"
	"alaska/internal/wal"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/*.golden from the running code")

// surfaceServers builds the two golden servers, each holding one stored
// item (so `fragmentation`, which needs used_bytes > 0, is present).
func surfaceServers(t *testing.T) map[string]*Server {
	t.Helper()
	wlog, err := wal.Open(wal.Options{Dir: t.TempDir(), AuditInterval: -1})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	t.Cleanup(func() { _ = wlog.Close() })
	persisted := kv.NewShardedStore(anchorageBackend(t), 8, 0)
	if err := wlog.Start(persisted); err != nil {
		t.Fatalf("wal start: %v", err)
	}
	persisted.SetMutationLog(wlog)
	srvs := map[string]*Server{
		"malloc":        New(kv.NewShardedStore(kv.NewMallocBackend(), 8, 0), Config{ConnModel: "goroutine"}),
		"anchorage_wal": New(persisted, Config{ConnModel: "goroutine", WAL: wlog}),
	}
	for _, srv := range srvs {
		runEventBatch(t, detachedEngine(srv), []byte("set k 0 0 3\r\nabc\r\n"), 1)
	}
	return srvs
}

// leValue matches a histogram bucket bound, so a family's buckets fold to
// one golden line per series.
var leValue = regexp.MustCompile(`le="[^"]*"`)

// metricsShape is a scrape with values stripped, each series' bucket lines
// folded into one, and the families sorted by name: a scraper keys on the
// family, so only the order of children within one is kept as rendered.
func metricsShape(body string) string {
	var fams []string
	for _, l := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(l, "# HELP ") {
			fams = append(fams, "")
		} else if !strings.HasPrefix(l, "# ") {
			l = leValue.ReplaceAllString(l[:strings.LastIndexByte(l, ' ')], `le=""`)
		}
		if f := &fams[len(fams)-1]; !strings.HasSuffix(*f, l+"\n") {
			*f += l + "\n"
		}
	}
	sort.Strings(fams)
	return strings.Join(fams, "")
}

func TestSurfaceGoldens(t *testing.T) {
	for name, srv := range surfaceServers(t) {
		var stats strings.Builder
		for _, row := range srv.StatsSnapshot() {
			stats.WriteString(row.Name + "\n")
		}
		rec := httptest.NewRecorder()
		NewAdminHandler(srv).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		for file, got := range map[string]string{
			"stats_" + name + ".golden":   stats.String(),
			"metrics_" + name + ".golden": metricsShape(rec.Body.String()),
		} {
			path := filepath.Join("testdata", file)
			if *updateGoldens {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from the running code (rerun with -update and review the diff):\n%s", path, got)
			}
		}
	}
}

// TestStatTableRowsRender holds the stat table to its contract: a row is
// on both surfaces or says why not, no name is declared twice, and each
// row renders on every surface it names, on both golden servers.
// Mutation: clear one row's metric name without giving it a why, and
// this fails.
func TestStatTableRowsRender(t *testing.T) {
	for name, srv := range surfaceServers(t) {
		stats := map[string]bool{}
		for _, row := range srv.StatsSnapshot() {
			stats[row.Name] = true
		}
		rec := httptest.NewRecorder()
		NewAdminHandler(srv).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		scrape := "\n" + rec.Body.String()
		seen := map[string]bool{}
		for i := range srv.rows {
			r := &srv.rows[i]
			if (r.stat == "" || r.metric == "") != (r.why != "") {
				t.Errorf("%s: row %q/%q is on one surface without a why, or on both with one (%q)", name, r.stat, r.metric, r.why)
			}
			if r.stat != "" {
				if seen[r.stat] || !stats[r.stat] {
					t.Errorf("%s: `stats` row %s declared twice or not rendered", name, r.stat)
				}
				seen[r.stat] = true
			}
			if r.metric == "" {
				continue
			}
			if child := r.metric + "{" + r.labels + "}"; seen[child] {
				t.Errorf("%s: /metrics child %s declared twice", name, child)
			} else {
				seen[child] = true
			}
			series := r.metric
			if r.h != nil {
				series += "_count"
			}
			if r.labels != "" {
				series += "{" + r.labels + "}"
			}
			if r.help == "" || r.kind == "" || !strings.Contains(scrape, "\n"+series+" ") {
				t.Errorf("%s: /metrics has no %s sample (kind %q, help %q)", name, series, r.kind, r.help)
			}
		}
	}
}
