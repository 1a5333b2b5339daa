package server

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"eleos/internal/metrics"
)

// Prometheus text exposition of the registry snapshot. The registry
// names instruments with '.'-separated paths and encodes dimensions
// (tenant, program source, flash channel) into the path; the exporter
// lifts those back out as proper labels so one scrape config covers any
// number of tenants:
//
//	qos.<tenant>.admitted_bytes      -> eleos_qos_admitted_bytes_total{tenant="..."}
//	write.tenant.<tenant>.bytes      -> eleos_write_tenant_bytes_total{tenant="..."}
//	flash.src.<source>.wblocks       -> eleos_flash_src_wblocks_total{source="..."}
//	flash.chan<i>.<field>            -> eleos_flash_channel_<field>{channel="i"}
//	health.<hist>.<i>                -> eleos_health_<hist>{bucket="i"}
//
// Everything else flattens '.' to '_' under the eleos_ namespace;
// counters get the conventional _total suffix, and histograms render as
// real Prometheus histograms (cumulative le buckets, _sum, _count).

// promHelp carries HELP strings for the families worth documenting;
// families not listed get a generic line.
var promHelp = map[string]string{
	"eleos_qos_admitted_bytes_total":            "Bytes admitted through per-tenant QoS admission.",
	"eleos_qos_throttled_total":                 "Admissions delayed by per-tenant rate limiting.",
	"eleos_qos_inflight_bytes":                  "Bytes currently inside a tenant's inflight budget.",
	"eleos_write_tenant_bytes_total":            "Logical bytes written, attributed to the issuing tenant.",
	"eleos_write_tenant_pages_total":            "Logical pages written, attributed to the issuing tenant.",
	"eleos_flash_src_bytes_total":               "Physical bytes programmed, split by traffic source.",
	"eleos_flash_src_wblocks_total":             "WBLOCK programs, split by traffic source.",
	"eleos_flash_programmed_bytes_total":        "Physical bytes programmed to flash, all sources.",
	"eleos_flash_program_ns":                    "Wall-clock time a WBLOCK program occupied its channel.",
	"eleos_flash_erase_ns":                      "Wall-clock time an EBLOCK erase occupied its channel.",
	"eleos_flash_read_ns":                       "Wall-clock time a gather read occupied its channel.",
	"eleos_flash_wall_late_ns":                  "How long after its deadline each emulated flash wait returned (wall-latency emulation only).",
	"eleos_core_write_bytes_accepted_total":     "Logical bytes accepted by the controller write path.",
	"eleos_core_gc_bytes_moved_total":           "Valid bytes relocated by garbage collection.",
	"eleos_core_gc_bytes_read_total":            "Media bytes transferred by garbage collection's relocation and metadata reads.",
	"eleos_core_commits_carried_total":          "User actions whose commit rode the run-tail padding of their own data WBLOCK instead of a log page.",
	"eleos_core_carried_bytes_total":            "Log-record trailer bytes those actions programmed into data WBLOCK padding.",
	"eleos_core_recover_actions_verified_total": "User actions recovery proved by reading their data back (commit durable, no Done record).",
	"eleos_core_recover_actions_rejected_total": "Of those, actions whose data did not match their commit record's checksum.",
	"eleos_core_recover_verify_bytes_total":     "Media bytes recovery read to prove them.",
	"eleos_health_eblocks_log":                  "Open and Used log-stream EBLOCKs: the space the log holds until a checkpoint truncates it.",
	"eleos_health_erase_hist":                   "EBLOCKs per erase-count bucket: 0 never erased, i in [2^(i-1), 2^i), the last bucket open-ended.",
	"eleos_health_util_hist":                    "Used EBLOCKs per valid-utilization decile.",
}

// promSample is one rendered sample line within a family.
type promSample struct {
	labels string // rendered {k="v"} pairs, "" for none
	bucket int    // a census sample's bucket: its place in the family
	value  string
}

// promFamily groups the samples that share a metric name.
type promFamily struct {
	name    string
	typ     string // counter | gauge
	samples []promSample
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers per family, labeled
// samples, deterministic order.
func WritePrometheus(w io.Writer, snap metrics.Snapshot) {
	fams := make(map[string]*promFamily)
	order := []string{}
	add := func(name, typ string, s promSample) {
		f := fams[name]
		if f == nil {
			f = &promFamily{name: name, typ: typ}
			fams[name] = f
			order = append(order, name)
		}
		f.samples = append(f.samples, s)
	}

	for _, c := range snap.Counters {
		name, labels := promName(c.Name)
		add(name+"_total", "counter", promSample{labels: labels, value: fmt.Sprintf("%d", c.Value)})
	}
	for _, g := range snap.Gauges {
		name, labels := promName(g.Name)
		s := promSample{labels: labels, value: fmt.Sprintf("%d", g.Value)}
		if _, bucket, ok := metrics.SplitLabeled(g.Name, "health."); ok {
			s.bucket, _ = strconv.Atoi(bucket) // 0 for a health gauge of its own family
		}
		add(name, "gauge", s)
	}

	// Snapshot sections are sorted by instrument name; emitting families
	// in first-seen order keeps the output deterministic while holding
	// each family's samples contiguous, as the format requires. A census
	// family's samples arrive in name order ("10" before "2") and are
	// written in bucket order.
	for _, name := range order {
		f := fams[name]
		slices.SortStableFunc(f.samples, func(a, b promSample) int { return cmp.Compare(a.bucket, b.bucket) })
		writePromHeader(w, f.name, f.typ)
		for _, s := range f.samples {
			fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, s.value)
		}
	}

	for _, h := range snap.Histograms {
		name, labels := promName(h.Name)
		writePromHeader(w, name, "histogram")
		inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
		leLabel := func(le string) string {
			if inner == "" {
				return fmt.Sprintf("{le=%q}", le)
			}
			return fmt.Sprintf("{%s,le=%q}", inner, le)
		}
		var cum int64
		for i, b := range h.Buckets {
			cum += b
			if i < len(h.Bounds) {
				fmt.Fprintf(w, "%s_bucket%s %d\n", name, leLabel(fmt.Sprintf("%d", h.Bounds[i])), cum)
			} else {
				fmt.Fprintf(w, "%s_bucket%s %d\n", name, leLabel("+Inf"), cum)
			}
		}
		fmt.Fprintf(w, "%s_sum%s %d\n", name, labels, h.Sum)
		fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count)
	}
}

func writePromHeader(w io.Writer, name, typ string) {
	help := promHelp[name]
	if help == "" {
		help = "eleos instrument " + name + "."
	}
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// promName maps a registry instrument name to its (family, labels)
// exposition form, extracting the path-encoded dimensions.
func promName(name string) (string, string) {
	// %q's escaping (backslash, quote, newline) matches the exposition
	// format's label-value escaping.
	if tenant, field, ok := metrics.SplitLabeled(name, "qos."); ok {
		return "eleos_qos_" + promFlat(field), fmt.Sprintf("{tenant=%q}", tenant)
	}
	if tenant, field, ok := metrics.SplitLabeled(name, "write.tenant."); ok {
		return "eleos_write_tenant_" + promFlat(field), fmt.Sprintf("{tenant=%q}", tenant)
	}
	if src, field, ok := metrics.SplitLabeled(name, "flash.src."); ok {
		return "eleos_flash_src_" + promFlat(field), fmt.Sprintf("{source=%q}", src)
	}
	if rest, ok := strings.CutPrefix(name, "flash.chan"); ok {
		if i := strings.IndexByte(rest, '.'); i > 0 && isDigits(rest[:i]) {
			return "eleos_flash_channel_" + promFlat(rest[i+1:]), fmt.Sprintf("{channel=%q}", rest[:i])
		}
	}
	if hist, bucket, ok := metrics.SplitLabeled(name, "health."); ok && isDigits(bucket) {
		return "eleos_health_" + promFlat(hist), fmt.Sprintf("{bucket=%q}", bucket)
	}
	return "eleos_" + promFlat(name), ""
}

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// promFlat maps a dotted registry path segment to a legal metric-name
// fragment: dots become underscores, anything outside [a-zA-Z0-9_]
// becomes '_'.
func promFlat(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
