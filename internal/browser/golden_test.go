package browser

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"grca/internal/apps"
	"grca/internal/apps/bgpflap"
	"grca/internal/event"
	"grca/internal/platform"
	"grca/internal/simnet"
)

// The Correlation Tester's golden: on the TestValidateRuleOnCorpus
// corpus, mining every generic signature series against all eBGP flaps,
// and validating every rule of the BGP application, gives these series
// in this order with these scores. A change to the mining bin, the
// smoothing radius, the number of shifts, their seed or the
// significance threshold moves them.
var goldenMining = []struct {
	series      string
	score       float64
	significant bool
}{
	{"syslog:BGP-5-ADJCHANGE", 40.6545586542568, true},
	{"syslog:LINEPROTO-5-UPDOWN", 29.1229962410598, true},
	{"syslog:LINK-3-UPDOWN", 26.8158016405889, true},
	{"syslog:BGP-5-NOTIFICATION", 26.0997273337058, true},
	{"syslog:PIM-5-NBRCHG", 12.914979509185, true},
	{"syslog:SYS-1-CPURISINGTHRESHOLD", 8.32205398011702, true},
	{"workflow:wf-task-00", 2.37724868620265, false},
	{"syslog:NOISE15-5-NOTICE", 2.07448071050248, false},
	{"workflow:wf-task-04", 2.04444181661365, false},
	{"syslog:NOISE09-5-NOTICE", 1.85726577571964, false},
	{"syslog:NOISE36-5-NOTICE", 1.72705377010034, false},
	{"syslog:NOISE24-5-NOTICE", 1.67229043380436, false},
	{"syslog:NOISE37-5-NOTICE", 1.56319784440023, false},
	{"syslog:NOISE17-5-NOTICE", 1.53671681921662, false},
	{"syslog:NOISE39-5-NOTICE", 1.46535020640229, false},
	{"syslog:NOISE11-5-NOTICE", 1.37123760472477, false},
	{"syslog:NOISE35-5-NOTICE", 1.23991971658488, false},
	{"syslog:NOISE02-5-NOTICE", 1.13331331761856, false},
	{"syslog:NOISE10-5-NOTICE", 1.10834096557233, false},
	{"workflow:wf-task-08", 1.051528243272, false},
	{"workflow:wf-task-12", 0.836806500818032, false},
	{"syslog:NOISE27-5-NOTICE", 0.579790531063269, false},
	{"workflow:wf-task-06", 0.544903587808523, false},
	{"workflow:wf-task-11", 0.534386886993301, false},
	{"syslog:NOISE33-5-NOTICE", 0.484659886641438, false},
	{"syslog:NOISE22-5-NOTICE", 0.482399868104897, false},
	{"workflow:wf-task-02", 0.33453730974748, false},
	{"syslog:NOISE30-5-NOTICE", 0.281213023198576, false},
	{"syslog:NOISE29-5-NOTICE", 0.172598356107836, false},
	{"syslog:NOISE32-5-NOTICE", 0.118417680254078, false},
	{"syslog:NOISE34-5-NOTICE", 0.0685649437142731, false},
	{"syslog:NOISE00-5-NOTICE", 0.0626377833882866, false},
	{"workflow:wf-task-10", -0.0710288162174482, false},
	{"syslog:NOISE05-5-NOTICE", -0.0874224892602228, false},
	{"syslog:NOISE18-5-NOTICE", -0.119780193086589, false},
	{"syslog:NOISE08-5-NOTICE", -0.152005886258161, false},
	{"workflow:wf-task-05", -0.187746632948781, false},
	{"workflow:wf-task-03", -0.210945867140322, false},
	{"syslog:NOISE07-5-NOTICE", -0.22057608186738, false},
	{"syslog:NOISE21-5-NOTICE", -0.277185510746954, false},
	{"syslog:NOISE25-5-NOTICE", -0.410889160773739, false},
	{"syslog:NOISE31-5-NOTICE", -0.489747965417467, false},
	{"workflow:wf-task-07", -0.49677394566237, false},
	{"syslog:NOISE13-5-NOTICE", -0.507856805447535, false},
	{"syslog:NOISE16-5-NOTICE", -0.53595065429143, false},
	{"syslog:NOISE06-5-NOTICE", -0.588463892392878, false},
	{"syslog:NOISE26-5-NOTICE", -0.659229700370663, false},
	{"workflow:wf-task-14", -0.680621280010376, false},
	{"workflow:wf-task-01", -0.703230507110937, false},
	{"syslog:NOISE38-5-NOTICE", -0.750408869759474, false},
	{"syslog:NOISE19-5-NOTICE", -0.757924631594466, false},
	{"syslog:NOISE03-5-NOTICE", -0.886426119619789, false},
	{"syslog:NOISE23-5-NOTICE", -1.01044147433007, false},
	{"workflow:wf-task-09", -1.08575731140677, false},
	{"workflow:wf-task-13", -1.11869156580945, false},
	{"syslog:NOISE20-5-NOTICE", -1.24894076819448, false},
	{"syslog:NOISE12-5-NOTICE", -1.49678339329066, false},
	{"syslog:NOISE28-5-NOTICE", -1.60871058780792, false},
	{"syslog:NOISE14-5-NOTICE", -1.63987129985686, false},
	{"syslog:NOISE04-5-NOTICE", -1.89903197350228, false},
	{"syslog:NOISE01-5-NOTICE", -2.19922703087298, false},
}

var goldenVerdicts = []struct {
	rule        string
	score       float64
	significant bool
	untestable  bool
}{
	{"Line protocol flap <- Interface flap", 47.7795165370357, true, false},
	{"Interface flap <- SONET restoration", 2.90882163164529, false, false},
	{"Interface flap <- Fast optical mesh network restoration", 0, false, true},
	{"Interface flap <- Regular optical mesh network restoration", 0, false, true},
	{"eBGP flap <- Router reboot", 0, false, true},
	{"eBGP flap <- Customer reset session", 7.86204400530297, true, false},
	{"eBGP flap <- Interface flap", 28.5645080465405, true, false},
	{"eBGP flap <- Line protocol flap", 30.8145925828194, true, false},
	{"eBGP flap <- eBGP HTE", 40.6070385276584, true, false},
	{"eBGP HTE <- CPU high (spike)", 16.0322907454654, true, false},
	{"eBGP HTE <- CPU high (average)", 0, false, true},
	{"eBGP HTE <- Interface flap", 16.4979898745354, true, false},
	{"eBGP HTE <- Line protocol flap", 19.3011087180461, true, false},
}

func TestMiningGolden(t *testing.T) {
	d, err := simnet.Generate(simnet.Config{
		Seed: 41, PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 8,
		Duration: 7 * 24 * time.Hour, BGPFlapIncidents: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.FromDataset(d, platform.Options{GenericSignatures: true})
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := bgpflap.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := Miner{Store: sys.Store}
	from := d.Config.Start
	to := from.Add(d.Config.Duration)
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

	results, err := m.Mine(sys.Store.All(event.EBGPFlap), m.CandidateSeries("syslog:", "workflow:"), from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(goldenMining) {
		t.Fatalf("mined %d series, golden has %d", len(results), len(goldenMining))
	}
	for i, r := range results {
		want := goldenMining[i]
		if r.Series != want.series || !near(r.Result.Score, want.score) || r.Result.Significant != want.significant {
			t.Errorf("result %d: %s score %.15g significant %v, want %s %.15g %v",
				i, r.Series, r.Result.Score, r.Result.Significant, want.series, want.score, want.significant)
		}
	}

	verdicts := m.ValidateGraph(g, from, to)
	if len(verdicts) != len(goldenVerdicts) {
		t.Fatalf("%d verdicts, golden has %d", len(verdicts), len(goldenVerdicts))
	}
	for i, v := range verdicts {
		want := goldenVerdicts[i]
		if v.Rule.Key() != want.rule || !near(v.Result.Score, want.score) ||
			v.Result.Significant != want.significant || errors.Is(v.Err, ErrUntestable) != want.untestable {
			t.Errorf("verdict %d: %s score %.15g significant %v err %v, want %s %.15g %v untestable %v",
				i, v.Rule.Key(), v.Result.Score, v.Result.Significant, v.Err, want.rule, want.score, want.significant, want.untestable)
		}
	}
}

// TestReportGolden pins WriteReport's bytes with the default drill-down
// settings (the top 3 unexplained symptoms, DrillLevel, DrillWindow);
// the diagnoses' elapsed times are zeroed, so no timing line prints.
func TestReportGolden(t *testing.T) {
	_, sys, ds := corpusForReport(t)
	for i := range ds {
		ds[i].Elapsed = 0
	}
	var b strings.Builder
	if err := WriteReport(&b, sys.Store, ds, ReportOptions{
		Title:   "BGP flap SQM report",
		Display: apps.MustGet("bgpflap").DisplayLabel,
		View:    sys.View,
	}); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(b.String()))
	if got, want := hex.EncodeToString(sum[:]), "439512ad9ffd63d4a45e2c0b2d44f8b5b8f6cd22e6fa8db32ff469902386cb2d"; got != want {
		t.Errorf("report sha256 = %s, want %s\n%s", got, want, b.String())
	}
}
