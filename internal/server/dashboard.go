package server

import "net/http"

// handleDashboard serves the minimal embedded Result Browser at
// /browser/: breakdown table, symptom/cause trend bars, and the live
// diagnosis stream, all rendered client-side from the /v1 JSON
// endpoints with no external assets.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(dashboardHTML)) //nolint:errcheck // client gone
}

const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>G-RCA Result Browser</title>
<style>
  body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 1.5rem; background: #111; color: #ddd; }
  h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin: 1.2rem 0 .4rem; color: #9cf; }
  table { border-collapse: collapse; } td, th { padding: .15rem .8rem; text-align: left; }
  th { border-bottom: 1px solid #555; color: #9cf; }
  td.num { text-align: right; }
  .bar { background: #28536b; display: inline-block; height: .7rem; }
  select, button { background: #222; color: #ddd; border: 1px solid #555; padding: .2rem .5rem; }
  #stream div { border-bottom: 1px dotted #333; padding: .15rem 0; }
  .label { color: #fc9; } .muted { color: #777; }
</style>
</head>
<body>
<h1>G-RCA Result Browser</h1>
<p>
  app <select id="app"></select>
  window <select id="window">
    <option value="">all</option><option>1h</option><option>6h</option><option>24h</option>
  </select>
  <button id="refresh">refresh</button>
  <span id="status" class="muted"></span>
</p>
<h2>Root-cause breakdown</h2>
<table><thead><tr><th>Root Cause</th><th>Percentage</th><th>Count</th><th></th></tr></thead>
<tbody id="rows"></tbody></table>
<h2>Symptom trend</h2>
<div id="trend" class="muted">loading…</div>
<h2>Live diagnoses <span id="seq" class="muted"></span></h2>
<div id="stream"></div>
<script>
const apps = ["bgpflap", "cdn", "pim", "backbone"];
const sel = document.getElementById("app");
for (const a of apps) { const o = document.createElement("option"); o.textContent = a; sel.append(o); }
const esc = s => s.replace(/&/g, "&amp;").replace(/</g, "&lt;");

async function refresh() {
  const app = sel.value, win = document.getElementById("window").value;
  const status = document.getElementById("status");
  try {
    const q = win ? "&window=" + win : "";
    const bd = await (await fetch("/v1/breakdown?app=" + app + q)).json();
    if (bd.error) { status.textContent = bd.error; return; }
    status.textContent = bd.total + " symptoms";
    document.getElementById("rows").innerHTML = bd.rows.map(r =>
      "<tr><td>" + esc(r.label) + "</td><td class=num>" + r.percent.toFixed(2) +
      "%</td><td class=num>" + r.count + "</td><td><span class=bar style=\"width:" +
      (2 * r.percent) + "px\"></span></td></tr>").join("");
    const cs = await (await fetch("/v1/causes?app=" + app)).json();
    const root = (await (await fetch("/v1/trend?bin=1h&name=" + encodeURIComponent(
      {bgpflap: "eBGP flap", cdn: "RTT degradation", pim: "PIM adjacency loss",
       backbone: "Packet loss"}[app]))).json());
    const max = Math.max(1, ...root.points.map(p => p.count));
    document.getElementById("trend").innerHTML = root.points.filter(p => p.count > 0).slice(-48).map(p =>
      "<div><span class=muted>" + esc(p.start.slice(0, 16)) + "</span> " +
      "<span class=bar style=\"width:" + (260 * p.count / max) + "px\"></span> " + p.count + "</div>"
    ).join("") || "<span class=muted>no symptom instances in the trend window</span>";
  } catch (e) { status.textContent = String(e); }
}
sel.onchange = refresh;
document.getElementById("window").onchange = refresh;
document.getElementById("refresh").onclick = refresh;
refresh();

const stream = document.getElementById("stream");
const es = new EventSource("/v1/stream?replay=10");
es.addEventListener("diagnosis", ev => {
  const d = JSON.parse(ev.data);
  document.getElementById("seq").textContent = "(seq " + d.seq + ")";
  const row = document.createElement("div");
  row.innerHTML = "<span class=muted>#" + d.seq + "</span> " + esc(d.app) +
    " <span class=label>" + esc(d.label) + "</span> " +
    esc(d.symptom.name) + " @ " + esc(d.symptom.loc.a || "") +
    (d.symptom.loc.b ? ":" + esc(d.symptom.loc.b) : "");
  stream.prepend(row);
  while (stream.childElementCount > 30) stream.lastChild.remove();
});
</script>
</body>
</html>
`
