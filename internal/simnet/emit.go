package simnet

import (
	"math"
	"strconv"
	"strings"
	"time"

	"grca/internal/collector"
	"grca/internal/netmodel"
)

// Every emitter renders its line into the scratch buffer d.buf with
// append-style helpers and hands it to emit, which copies it into the
// source's arena. Arguments that draw from d.rng are drawn in the order the
// line names them, so the random stream (and with it the whole corpus) is a
// function of Config alone. The periodic feeds (periodic.go) draw first and
// render later, on other goroutines, so their formats are rendered by
// functions that draw nothing (appendSNMP, appendPerf, appendKeynote), pure
// functions of the values drawn; snmp, which the scenarios call, draws and
// then renders with the same appendSNMP.

// zone returns the location of a device time zone, loading each name once
// per Dataset.
func (d *Dataset) zone(name string) *time.Location {
	if name == "" {
		return time.UTC
	}
	if loc, ok := d.zones[name]; ok {
		return loc
	}
	loc, err := time.LoadLocation(name)
	if err != nil {
		loc = time.UTC
	}
	d.zones[name] = loc
	return loc
}

// appendDeviceRef appends a router reference the way one of the management
// systems would render it, drawing which of appendDevice's forms.
func (d *Dataset) appendDeviceRef(dst []byte, router string) []byte {
	return appendDevice(dst, router, d.deviceForm())
}

// deviceForm draws the form a router reference is rendered in, chosen
// pseudo-randomly so the collector's alias normalization is genuinely
// exercised.
func (d *Dataset) deviceForm() uint8 { return uint8(d.rng.Intn(3)) }

// appendDevice appends router in form 0 (short name), 1 (FQDN) or 2
// (upper case).
func appendDevice(dst []byte, router string, form uint8) []byte {
	switch form {
	case 0:
		return append(dst, router...)
	case 1:
		return append(append(dst, router...), ".net.example.com"...)
	default:
		return appendUpper(dst, router)
	}
}

// appendUpper appends strings.ToUpper(s) without building the string when s
// is ASCII.
func appendUpper(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return append(dst, strings.ToUpper(s)...)
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// pow10 holds 10^prec for the precisions appendFixed formats exactly.
var pow10 = [...]uint64{1, 10, 100, 1000}

// appendFixed appends v with prec digits after the decimal point, byte for
// byte as strconv.AppendFloat(dst, v, 'f', prec, 64) does, which is its
// oracle (FuzzAppendFixed). For 0 ≤ v < 2^53 and prec ≤ 3 it rounds the
// exact binary value in integer arithmetic: v = m·2^E with m < 2^53, so
// m·10^prec < 2^63, and shifting E bits off with round-half-to-even is the
// correctly rounded decimal strconv's exact path computes. Everything else
// (negative or signed zero, NaN, ±Inf, large values, more digits) is
// strconv's.
func appendFixed(dst []byte, v float64, prec int) []byte {
	bits := math.Float64bits(v)
	biased := int(bits>>52) & 0x7ff
	if bits>>63 != 0 || biased > 1075 || prec < 0 || prec >= len(pow10) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	mant, exp := bits&(1<<52-1), -1074
	if biased != 0 {
		mant |= 1 << 52
		exp = biased - 1075
	}
	q := mant * pow10[prec]
	switch shift := uint(-exp); {
	case exp == 0:
	case shift >= 64:
		q = 0 // m·10^prec / 2^shift < 1/2: rounds to zero
	default:
		rem, half := q&(1<<shift-1), uint64(1)<<(shift-1)
		q >>= shift
		if rem > half || rem == half && q&1 == 1 {
			q++
		}
	}
	dst = strconv.AppendUint(dst, q/pow10[prec], 10)
	if prec == 0 {
		return dst
	}
	dst = append(dst, '.')
	frac := q % pow10[prec]
	for p := pow10[prec] / 10; p > 1 && frac < p; p /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendUint(dst, frac, 10)
}

// syslog emits one syslog line stamped in the device's local wall time;
// the message is the concatenation of msg.
func (d *Dataset) syslog(at time.Time, router string, msg ...string) {
	tz := time.UTC
	if r := d.Topo.Routers[router]; r != nil {
		tz = d.zone(r.TZName)
	}
	b := at.In(tz).AppendFormat(d.buf[:0], "Jan _2 15:04:05")
	b = append(b, ' ')
	b = d.appendDeviceRef(b, router)
	b = append(b, ' ')
	for _, m := range msg {
		b = append(b, m...)
	}
	d.emit(collector.SourceSyslog, at, b)
}

// Cascade emitters for the common causal chains.

func (d *Dataset) linkUpDown(at time.Time, router, ifname, state string) {
	d.syslog(at, router, "%LINK-3-UPDOWN: Interface ", ifname, ", changed state to ", state)
}

func (d *Dataset) lineProtoUpDown(at time.Time, router, ifname, state string) {
	d.syslog(at, router, "%LINEPROTO-5-UPDOWN: Line protocol on Interface ", ifname, ", changed state to ", state)
}

func (d *Dataset) bgpAdj(at time.Time, router, neighbor, state, reason string) {
	sep := ""
	if reason != "" {
		sep = " "
	}
	d.syslog(at, router, "%BGP-5-ADJCHANGE: neighbor ", neighbor, " ", state, sep, reason)
}

func (d *Dataset) bgpHTE(at time.Time, router, neighbor string) {
	d.syslog(at, router, "%BGP-5-NOTIFICATION: sent to neighbor ", neighbor, " 4/0 (hold time expired)")
}

func (d *Dataset) bgpCustomerReset(at time.Time, router, neighbor string) {
	d.syslog(at, router, "%BGP-5-NOTIFICATION: received from neighbor ", neighbor, " 6/4 (administrative reset)")
}

func (d *Dataset) cpuSpike(at time.Time, router string, pct int) {
	d.syslog(at, router, "%SYS-1-CPURISINGTHRESHOLD: Threshold: Total CPU Utilization(Total/Intr): ", strconv.Itoa(pct), "%/2%")
}

func (d *Dataset) reboot(at time.Time, router string) {
	d.syslog(at, router, "%SYS-5-RESTART: System restarted")
}

// pimVRFChange emits the MVPN adjacency message: reporter lost (or
// regained) its PE neighbor in the customer VRF; the neighbor is named by
// loopback, as the protocol does.
func (d *Dataset) pimVRFChange(at time.Time, reporter, vrf, neighborPE, state string) {
	loop := d.Topo.Routers[neighborPE].Loopback
	d.syslog(at, reporter, "%PIM-5-NBRCHG: VRF ", vrf, ": neighbor ", loop.String(), " ", state)
}

func (d *Dataset) pimUplinkChange(at time.Time, reporter, ifname string, neighborIP string, state string) {
	d.syslog(at, reporter, "%PIM-5-NBRCHG: neighbor ", neighborIP, " ", state, " on interface ", ifname)
}

// snmp emits one SNMP sample row.
func (d *Dataset) snmp(at time.Time, router, object, instance string, value float64) {
	d.emit(collector.SourceSNMP, at, appendSNMP(d.buf[:0], at.Unix(), router, d.deviceForm(), object, instance, value))
}

// appendSNMP renders an SNMP sample row taken at Unix time unix, its
// router in form.
func appendSNMP(dst []byte, unix int64, router string, form uint8, object, instance string, value float64) []byte {
	b := strconv.AppendInt(dst, unix, 10)
	b = appendDevice(append(b, ','), router, form)
	b = append(append(b, ','), object...)
	b = append(append(b, ','), instance...)
	return appendFixed(append(b, ','), value, 1)
}

// ospfMetric emits one OSPF monitor observation for a link, advertised
// from its A end.
func (d *Dataset) ospfMetric(at time.Time, l *netmodel.LogicalLink, metric int, initial bool) {
	b := at.UTC().AppendFormat(d.buf[:0], time.RFC3339)
	b = l.A.Router.Loopback.AppendTo(append(b, ' '))
	b = l.A.IP.AppendTo(append(b, ' '))
	b = strconv.AppendInt(append(b, " metric "...), int64(metric), 10)
	if initial {
		b = append(b, " initial"...)
	}
	d.emit(collector.SourceOSPFMon, at, b)
}

// bgpAnnounce and bgpWithdraw emit reflector feed records.
func (d *Dataset) bgpAnnounce(at time.Time, prefix, egress string, localPref, asLen int) {
	b := d.bgpRecord(at, 'A', prefix, egress)
	b = strconv.AppendInt(append(b, '|'), int64(localPref), 10)
	b = strconv.AppendInt(append(b, '|'), int64(asLen), 10)
	d.emit(collector.SourceBGPMon, at, append(b, "|0|0"...))
}

func (d *Dataset) bgpWithdraw(at time.Time, prefix, egress string) {
	d.emit(collector.SourceBGPMon, at, d.bgpRecord(at, 'W', prefix, egress))
}

// bgpRecord renders the fields a reflector record opens with.
func (d *Dataset) bgpRecord(at time.Time, kind byte, prefix, egress string) []byte {
	b := strconv.AppendInt(d.buf[:0], at.Unix(), 10)
	b = append(b, '|', kind, '|')
	b = append(append(b, prefix...), '|')
	return d.Topo.Routers[egress].Loopback.AppendTo(b)
}

// The zones TACACS and layer-1 devices stamp their records in, one drawn
// per record.
var (
	tacacsZones = []*time.Location{time.FixedZone("", 0), time.FixedZone("", -5*3600), time.FixedZone("", -6*3600)}
	layer1Zones = []*time.Location{time.FixedZone("", 0), time.FixedZone("", -5*3600)}
)

// tacacs emits a command-accounting record with a randomized zone offset.
func (d *Dataset) tacacs(at time.Time, router, user, command string) {
	tz := tacacsZones[d.rng.Intn(len(tacacsZones))]
	b := at.In(tz).AppendFormat(d.buf[:0], time.RFC3339)
	b = d.appendDeviceRef(append(b, '|'), router)
	b = append(append(b, '|'), user...)
	b = append(append(b, '|'), command...)
	d.emit(collector.SourceTACACS, at, b)
}

func (d *Dataset) workflow(at time.Time, router, ticket, action string) {
	b := at.UTC().AppendFormat(d.buf[:0], time.RFC3339)
	b = d.appendDeviceRef(append(b, '|'), router)
	b = append(append(b, '|'), ticket...)
	b = append(append(b, '|'), action...)
	d.emit(collector.SourceWorkflow, at, b)
}

func (d *Dataset) layer1(at time.Time, device, kind, detail string) {
	tz := layer1Zones[d.rng.Intn(len(layer1Zones))]
	b := at.In(tz).AppendFormat(d.buf[:0], "2006/01/02 15:04:05 -0700")
	b = append(append(b, '|'), device...)
	b = append(append(b, '|'), kind...)
	b = append(append(b, '|'), detail...)
	d.emit(collector.SourceLayer1, at, b)
}

// appendKeynote renders a CDN measurement taken at Unix time unix.
func appendKeynote(dst []byte, unix int64, server, agent string, rttMS, tputKbps float64) []byte {
	b := strconv.AppendInt(dst, unix, 10)
	b = append(append(b, ','), server...)
	b = append(append(b, ','), agent...)
	b = appendFixed(append(b, ','), rttMS, 1)
	return appendFixed(append(b, ','), tputKbps, 0)
}

func (d *Dataset) serverLog(at time.Time, record, who, value string) {
	b := strconv.AppendInt(d.buf[:0], at.Unix(), 10)
	b = append(append(b, ','), record...)
	b = append(append(b, ','), who...)
	b = append(append(b, ','), value...)
	d.emit(collector.SourceServer, at, b)
}

// appendPerf renders an inter-PoP probe measurement taken at Unix time
// unix, its routers in the forms given.
func appendPerf(dst []byte, unix int64, ingress string, inForm uint8, egress string, egForm uint8, delayMS, lossPct, tputMbps float64) []byte {
	b := strconv.AppendInt(dst, unix, 10)
	b = appendDevice(append(b, ','), ingress, inForm)
	b = appendDevice(append(b, ','), egress, egForm)
	b = appendFixed(append(b, ','), delayMS, 1)
	b = appendFixed(append(b, ','), lossPct, 2)
	return appendFixed(append(b, ','), tputMbps, 0)
}
