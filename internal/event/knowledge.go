package event

import "grca/internal/locus"

// Canonical event names. The common entries reproduce Table I of the paper;
// application-specific names reproduce Tables III, V, and VII.
const (
	// Common events (Table I).
	RouterReboot      = "Router reboot"
	CPUHighAverage    = "CPU high (average)"
	CPUHighSpike      = "CPU high (spike)"
	InterfaceDown     = "Interface down"
	InterfaceUp       = "Interface up"
	InterfaceFlap     = "Interface flap"
	LineProtoDown     = "Line protocol down"
	LineProtoUp       = "Line protocol up"
	LineProtoFlap     = "Line protocol flap"
	OpticalRegular    = "Regular optical mesh network restoration"
	OpticalFast       = "Fast optical mesh network restoration"
	SONETRestoration  = "SONET restoration"
	LinkCongestion    = "Link congestion alarm"
	LinkLoss          = "Link loss alarm"
	OSPFReconvergence = "OSPF re-convergence event"
	RouterCostInOut   = "Router Cost In/Out"
	LinkCostOutDown   = "Link Cost Out/Down"
	LinkCostInUp      = "Link Cost In/Up"
	CommandCostIn     = "Command to Cost In Links"
	CommandCostOut    = "Command to Cost Out Links"
	BGPEgressChange   = "BGP egress change"
	DelayIncrease     = "In-network delay increase"
	LossIncrease      = "In-network loss increase"
	ThroughputDrop    = "In-network throughput drop"

	// BGP flap application (Table III).
	EBGPFlap             = "eBGP flap"
	CustomerResetSession = "Customer reset session"
	EBGPHoldTimerExpired = "eBGP HTE"

	// CDN application (Table V and Fig. 5).
	CDNRTTIncrease    = "CDN round trip time increase"
	CDNThroughputDrop = "CDN end-to-end throughput drop"
	CDNServerIssue    = "CDN server issue"
	CDNPolicyChange   = "CDN assignment policy change"

	// PIM / MVPN application (Table VII).
	PIMAdjacencyChange       = "PIM Neighbor Adjacency Change"
	PIMConfigChange          = "PIM Configuration change"
	PIMUplinkAdjacencyChange = "Uplink PIM adjacency change"

	// Auxiliary signatures used by the domain-knowledge studies of §IV:
	// provisioning activity from workflow logs (the hidden vendor bug of
	// Fig. 7) and generic BGP notifications.
	ProvisioningActivity = "Provisioning activity"
	BGPNotification      = "BGP notification"
)

// Data source names as used throughout the collector.
const (
	SourceSyslog      = "syslog"
	SourceSNMP        = "SNMP"
	SourceLayer1Log   = "layer-1 device log"
	SourceOSPFMonitor = "OSPF monitor"
	SourceBGPMonitor  = "BGP monitor"
	SourceTACACS      = "TACACS"
	SourcePerfMonitor = "performance monitor"
)

// Knowledge returns a fresh copy of the RCA Knowledge Library's common
// event definitions (Table I of the paper). Callers may extend or redefine
// entries without affecting other callers.
func Knowledge() *Library {
	l := NewLibrary()
	add := func(name, desc string, lt locus.Type, src string) {
		// Definitions here are static and validated by tests; Define only
		// fails on programmer error, which must not be silently dropped.
		if err := l.Define(Definition{Name: name, Description: desc, LocType: lt, Source: src}); err != nil {
			panic(err)
		}
	}
	add(RouterReboot, "router was rebooted", locus.Router, SourceSyslog)
	add(CPUHighAverage, ">= 80% average utilization in 5-minute intervals", locus.Router, SourceSNMP)
	add(CPUHighSpike, ">= 90% average utilization over the past 5 seconds", locus.Router, SourceSyslog)
	add(InterfaceDown, "LINK-3-UPDOWN msg", locus.Interface, SourceSyslog)
	add(InterfaceUp, "LINK-3-UPDOWN msg", locus.Interface, SourceSyslog)
	add(InterfaceFlap, "LINK-3-UPDOWN msg", locus.Interface, SourceSyslog)
	add(LineProtoDown, "LINEPROTO-5-UPDOWN msg", locus.Interface, SourceSyslog)
	add(LineProtoUp, "LINEPROTO-5-UPDOWN msg", locus.Interface, SourceSyslog)
	add(LineProtoFlap, "LINEPROTO-5-UPDOWN msg", locus.Interface, SourceSyslog)
	add(OpticalRegular, "regular restoration events in layer-1 optical mesh network", locus.Layer1Device, SourceLayer1Log)
	add(OpticalFast, "fast restoration events in layer-1 optical mesh network", locus.Layer1Device, SourceLayer1Log)
	add(SONETRestoration, "restoration events in the layer-1 SONET network", locus.Layer1Device, SourceLayer1Log)
	add(LinkCongestion, ">= 80% link utilization in 5-minute intervals", locus.Interface, SourceSNMP)
	add(LinkLoss, ">= 100 corrupted packets in 5-minute intervals", locus.Interface, SourceSNMP)
	add(OSPFReconvergence, "link weight update in OSPF", locus.Interface, SourceOSPFMonitor)
	add(RouterCostInOut, "router cost in/out inferred from link weight changes", locus.Router, SourceOSPFMonitor)
	add(LinkCostOutDown, "link cost out or link down inferred from link weight changes", locus.Interface, SourceOSPFMonitor)
	add(LinkCostInUp, "link cost in or link up inferred from link weight changes", locus.Interface, SourceOSPFMonitor)
	add(CommandCostIn, "command typed by operators to cost in links", locus.Interface, SourceTACACS)
	add(CommandCostOut, "command typed by operators to cost out links", locus.Interface, SourceTACACS)
	add(BGPEgressChange, "BGP next hop to some external prefix changed", locus.IngressDestination, SourceBGPMonitor)
	add(DelayIncrease, "delay increase between two PoPs", locus.IngressEgress, SourcePerfMonitor)
	add(LossIncrease, "loss increase between two PoPs", locus.IngressEgress, SourcePerfMonitor)
	add(ThroughputDrop, "throughput drop between two PoPs", locus.IngressEgress, SourcePerfMonitor)
	return l
}
