package web

import (
	"fmt"
	"html/template"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/prof"
)

// prof.go serves the continuous-profiling ring: /debug/prof lists stored
// captures (HTML for a browser, JSON with ?format=json), and
// /debug/prof/{name} streams one capture for `go tool pprof`.

// debugProf lists the capture ring.
func (h *handler) debugProf(w http.ResponseWriter, r *http.Request) {
	caps := h.profRing.List()
	if r.FormValue("format") == "json" {
		writeJSON(w, caps)
		return
	}
	type row struct {
		prof.Capture
		Age  string
		KiB  float64
		Href string
	}
	data := struct {
		Dir  string
		Rows []row
	}{Dir: h.profRing.Dir()}
	now := time.Now()
	// Newest first: the capture an operator wants is almost always the one
	// the page event just took.
	for i := len(caps) - 1; i >= 0; i-- {
		c := caps[i]
		data.Rows = append(data.Rows, row{
			Capture: c,
			Age:     now.Sub(c.ModTime).Round(time.Second).String(),
			KiB:     float64(c.Size) / 1024,
			Href:    "/debug/prof/" + c.Name,
		})
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := profTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// debugProfGet streams one capture.
func (h *handler) debugProfGet(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/debug/prof/")
	rc, err := h.profRing.Open(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", name))
	io.Copy(w, rc)
}

var profTmpl = template.Must(template.New("prof").Parse(`<!doctype html>
<html><head><title>EIL — profile ring</title>
<style>
 body{font-family:sans-serif;margin:1.5em;max-width:70em;background:#fafafa}
 h1{margin:0 0 .2em} .sub{color:#666;font-size:.85em;margin-bottom:1em}
 table{border-collapse:collapse;background:#fff}
 td,th{padding:.3em .7em;border-bottom:1px solid #eee;text-align:left;font-size:.9em}
 a{color:#2563eb} .kind{font-weight:bold}
</style></head><body>
<h1>Profile ring</h1>
<div class="sub">{{len .Rows}} captures in {{.Dir}} &middot; <a href="/debug/prof?format=json">json</a> &middot; <a href="/debug/dash">dashboard</a><br>
pull one with: go tool pprof http://HOST/debug/prof/NAME</div>
{{if .Rows}}<table><tr><th>#</th><th>Kind</th><th>Reason</th><th>Age</th><th>Size</th><th></th></tr>
{{range .Rows}}<tr><td>{{.Seq}}</td><td class="kind">{{.Kind}}</td><td>{{.Reason}}</td><td>{{.Age}}</td><td>{{printf "%.1f KiB" .KiB}}</td>
 <td><a href="{{.Href}}">download</a></td></tr>{{end}}
</table>{{else}}<p>No captures yet. The profiler stores scheduled, on-demand, and SLO-page captures here.</p>{{end}}
</body></html>`))
