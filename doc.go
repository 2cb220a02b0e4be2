// Package hide is a from-scratch Go reproduction of the HIDE system
// from "HIDE: AP-assisted Broadcast Traffic Management to Save
// Smartphone Energy" (Peng, Zhou, Nguyen, Qi, Lin — ICDCS 2016).
//
// HIDE reduces smartphone energy wasted on useless WiFi broadcast
// traffic by filtering at the access point: clients report their open
// UDP ports to the AP in a new management frame (the UDP Port
// Message), the AP decides per client which buffered broadcast frames
// are useful (Algorithm 1 over the Client UDP Port Table), and a new
// per-client Broadcast Traffic Indication Map (BTIM) beacon element
// hides useless broadcast frames from suspended clients — so they
// neither receive them nor wake up to process them.
//
// The package exposes three layers:
//
//   - A trace-driven evaluation pipeline reproducing the paper's energy
//     study (Figures 7-9): synthetic broadcast traces calibrated to the
//     paper's five real-world scenarios, the Section IV energy model
//     with the published Nexus One / Galaxy S4 power profiles, and the
//     three compared solutions (receive-all, the client-side driver
//     filter's lower bound, and HIDE).
//
//   - A protocol-level simulation: an 802.11 AP and stations exchanging
//     real marshalled frames (beacons with TIM/BTIM elements, UDP Port
//     Messages with ACK-gated retransmission, PS-Polls, UDP-padded
//     broadcast data) over an emulated channel with a virtual clock.
//
//   - The Section V overhead analyses: network capacity via Bianchi's
//     DCF saturation-throughput model (Figure 10) and packet delay via
//     the Client UDP Port Table operation costs (Figures 11-12).
//
// Quick start:
//
//	tr, _ := hide.GenerateTrace(hide.Starbucks)
//	cmp, _ := hide.CompareEnergyContext(context.Background(), tr, hide.NexusOne, hide.Options{})
//	fmt.Printf("receive-all %.1f mW, HIDE:10%% %.1f mW (saves %.0f%%)\n",
//		cmp.ReceiveAll.AvgPowerMW(), cmp.HIDE[0].AvgPowerMW(), 100*cmp.Savings(0))
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package hide
