// The live campaign dashboard: a single self-contained HTML page at /dash,
// no external assets. Every two seconds the page polls /v1/status for the
// header, outcome taxonomy table and worker table, /v1/matrices for the
// submission queue, and /v1/matrices by ID for the scenario grid and
// vulnerability panel — the running submissions, or the latest one when
// none runs. It subscribes to the /dash/events SSE feed (obs.go) for the
// injection-throughput sparkline. Every dynamic value is rendered through textContent, so
// caller-controlled wire strings (worker names, campaign keys) can never
// inject markup.
package dist

import "net/http"

func (c *Coordinator) handleDash(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(dashHTML))
}

const dashHTML = `<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>serfi campaign dashboard</title>
<style>
  body { font-family: ui-monospace, SFMono-Regular, Menlo, monospace; margin: 1.5em; background: #111; color: #ddd; }
  h1 { font-size: 1.1em; } h2 { font-size: 0.95em; margin-bottom: 0.3em; color: #9cf; }
  a { color: #9cf; }
  table { border-collapse: collapse; margin-bottom: 1em; }
  th, td { padding: 2px 10px; text-align: left; border-bottom: 1px solid #333; font-size: 0.85em; }
  th { color: #888; font-weight: normal; }
  td.num { text-align: right; }
  .grid { display: flex; flex-wrap: wrap; gap: 6px; margin-bottom: 1em; }
  .cell { width: 170px; padding: 6px 8px; border: 1px solid #333; border-radius: 4px; font-size: 0.75em; }
  .cell .bar { height: 4px; background: #333; border-radius: 2px; margin-top: 4px; }
  .cell .bar i { display: block; height: 4px; background: #4c8; border-radius: 2px; }
  .cell.done { border-color: #4c8; } .cell.failed { border-color: #e55; }
  .cell.skipped { opacity: 0.5; }
  canvas { background: #181818; border: 1px solid #333; border-radius: 4px; }
  #hdr { color: #888; font-size: 0.85em; margin-bottom: 1em; }
</style>
</head>
<body>
<h1>serfi campaign dashboard</h1>
<div id="hdr">connecting&hellip;</div>
<h2>throughput (injections/s)</h2>
<canvas id="spark" width="640" height="80"></canvas>
<h2>scenario grid</h2>
<div class="grid" id="grid"></div>
<h2>outcome taxonomy</h2>
<table id="outcomes"><thead><tr><th>outcome</th><th>count</th></tr></thead><tbody></tbody></table>
<h2>vulnerability (unmasked rate, 95% CI)</h2>
<table id="vuln"><thead><tr><th>campaign</th><th>unmasked</th><th>sampled</th><th>rate</th><th>95% CI</th></tr></thead><tbody></tbody></table>
<div id="queuepanel" style="display:none">
<h2>submission queue (per tenant)</h2>
<table id="queue"><thead><tr><th>matrix</th><th>tenant</th><th>state</th><th>campaigns</th><th>injected</th><th>elapsed</th></tr></thead><tbody></tbody></table>
</div>
<h2>workers</h2>
<table id="workers"><thead><tr><th>worker</th><th>live</th><th>shards</th><th>runs</th><th>last seen</th></tr></thead><tbody></tbody></table>
<p><a href="/">status page</a> &middot; <a href="/metrics">metrics</a></p>
<script>
"use strict";
var rate = [];      // [t_ms, injections] samples from SSE job beats
var injSeen = 0;
var matrixDone = false;

function td(tr, text, num) {
  var c = document.createElement("td");
  c.textContent = text;            // textContent: wire strings cannot inject
  if (num) c.className = "num";
  tr.appendChild(c);
  return c;
}

function renderStatus(st) {
  var hdr = document.getElementById("hdr");
  hdr.textContent = "campaigns " + st.campaigns_done + "/" + st.campaigns +
    " · shards " + st.shards_done + "/" + st.shards +
    " · injections " + st.injected + "/" + st.injections +
    " · elapsed " + st.elapsed_sec.toFixed(0) + "s" +
    (st.done ? " · matrix complete" : "");

  var ob = document.querySelector("#outcomes tbody");
  ob.textContent = "";
  Object.keys(st.outcomes || {}).sort().forEach(function (k) {
    var tr = document.createElement("tr");
    td(tr, k); td(tr, String(st.outcomes[k]), true);
    ob.appendChild(tr);
  });

  var wb = document.querySelector("#workers tbody");
  wb.textContent = "";
  (st.workers || []).forEach(function (w) {
    var tr = document.createElement("tr");
    td(tr, w.name); td(tr, String(w.live), true); td(tr, String(w.shards), true);
    td(tr, String(w.runs), true); td(tr, w.last_seen_sec.toFixed(1) + "s", true);
    wb.appendChild(tr);
  });

  if (st.done) matrixDone = true;
}

// renderCampaigns draws the scenario grid and the vulnerability panel from
// the campaign rows of the submissions on show.
function renderCampaigns(rows) {
  var grid = document.getElementById("grid");
  grid.textContent = "";
  rows.forEach(function (c) {
    var cell = document.createElement("div");
    cell.className = "cell" + (c.failed ? " failed" : c.done ? " done" : "") + (c.skipped ? " skipped" : "");
    var name = document.createElement("div");
    name.textContent = c.key + (c.skipped ? " (stored)" : c.failed ? " (failed)" : "");
    cell.appendChild(name);
    var bar = document.createElement("div");
    bar.className = "bar";
    var fill = document.createElement("i");
    var pct = c.faults > 0 ? Math.min(100, 100 * c.injected / c.faults) : (c.done ? 100 : 0);
    if (c.skipped) pct = 100;
    fill.style.width = pct + "%";
    bar.appendChild(fill);
    cell.appendChild(bar);
    grid.appendChild(cell);
  });

  var vb = document.querySelector("#vuln tbody");
  vb.textContent = "";
  rows.filter(function (c) { return c.sampled > 0; })
    .sort(function (a, b) {
      return (b.unmasked || 0) / b.sampled - (a.unmasked || 0) / a.sampled;
    })
    .forEach(function (c) {
      var tr = document.createElement("tr");
      var rate = 100 * (c.unmasked || 0) / c.sampled;
      td(tr, c.key);
      td(tr, String(c.unmasked || 0), true);
      td(tr, String(c.sampled), true);
      td(tr, rate.toFixed(1) + "%", true);
      td(tr, (100 * (c.ci_lo || 0)).toFixed(1) + "-" + (100 * (c.ci_hi || 0)).toFixed(1) + "%", true);
      vb.appendChild(tr);
    });
}

// Submission queue: one row per queued matrix, grouped by tenant so a
// starved namespace is visible at a glance. A lone anonymous matrix (a
// one-shot serve) needs no table; the status page applies the same rule.
function renderQueue(ms) {
  document.getElementById("queuepanel").style.display = ms.length > 1 || (ms.length === 1 && ms[0].tenant) ? "" : "none";
  var qb = document.querySelector("#queue tbody");
  qb.textContent = "";
  ms.slice().sort(function (a, b) {
    var ta = a.tenant || "default", tb = b.tenant || "default";
    return ta < tb ? -1 : ta > tb ? 1 : a.id < b.id ? -1 : 1;
  }).forEach(function (m) {
    var tr = document.createElement("tr");
    td(tr, m.id);
    td(tr, m.tenant || "default");
    td(tr, m.state);
    td(tr, m.campaigns_done + "/" + m.campaigns, true);
    td(tr, (m.injected || 0) + "/" + (m.injections || 0), true);
    td(tr, m.elapsed_sec.toFixed(0) + "s", true);
    qb.appendChild(tr);
  });
}

function drawSpark() {
  var cv = document.getElementById("spark"), ctx = cv.getContext("2d");
  ctx.clearRect(0, 0, cv.width, cv.height);
  var now = Date.now(), window_ = 120000; // 2-minute window
  rate = rate.filter(function (s) { return now - s[0] < window_; });
  // Bucket samples into 2s bins of injections/s.
  var bins = {};
  rate.forEach(function (s) {
    var b = Math.floor((now - s[0]) / 2000);
    bins[b] = (bins[b] || 0) + s[1];
  });
  var n = 60, max = 1;
  for (var i = 0; i < n; i++) max = Math.max(max, (bins[i] || 0) / 2);
  ctx.strokeStyle = "#4c8"; ctx.fillStyle = "#2a5540";
  ctx.beginPath();
  ctx.moveTo(cv.width, cv.height);
  for (var i = 0; i < n; i++) {
    var v = (bins[i] || 0) / 2;
    var x = cv.width - (i + 1) * (cv.width / n);
    var y = cv.height - (v / max) * (cv.height - 8);
    ctx.lineTo(x, y);
  }
  ctx.lineTo(0, cv.height);
  ctx.closePath(); ctx.fill(); ctx.stroke();
  ctx.fillStyle = "#888"; ctx.font = "10px monospace";
  ctx.fillText("peak " + max.toFixed(1) + "/s", 6, 12);
}

function post(path, body) {
  return fetch(path, {method: "POST", headers: {"Content-Type": "application/json"}, body: JSON.stringify(body)})
    .then(function (r) { return r.json(); });
}

// poll reads the aggregate, then the queue, then the campaign rows of the
// running submissions — or of the latest one when none runs, so a finished
// one-shot serve still shows its grid.
function poll() {
  fetch("/v1/status").then(function (r) { return r.json(); }).then(function (st) {
    renderStatus(st);
    return post("/v1/matrices", {proto: st.proto}).then(function (mr) {
      var ms = mr.matrices || [];
      renderQueue(ms);
      var ids = ms.filter(function (m) { return m.state === "running"; }).map(function (m) { return m.id; });
      if (!ids.length && ms.length) ids = [ms[ms.length - 1].id];
      return Promise.all(ids.map(function (id) { return post("/v1/matrices", {proto: st.proto, id: id}); }));
    });
  }).then(function (replies) {
    var rows = [];
    replies.forEach(function (r) { rows = rows.concat(r.campaign_list || []); });
    renderCampaigns(rows.sort(function (a, b) { return a.key < b.key ? -1 : a.key > b.key ? 1 : 0; }));
  }).catch(function () {});
  if (!matrixDone) setTimeout(poll, 2000);
}
poll();
setInterval(drawSpark, 1000);

var es = new EventSource("/dash/events");
es.onmessage = function (m) {
  var ev;
  try { ev = JSON.parse(m.data); } catch (e) { return; }
  if (ev.type === "job") rate.push([Date.now(), ev.hi - ev.lo]);
  if (ev.type === "matrix") { matrixDone = true; es.close(); poll(); }
};
</script>
</body>
</html>
`
