"""Bring your own netlist: structural Verilog in, TAG and embeddings out.

A downstream user typically has a post-synthesis structural Verilog netlist
rather than this repository's RTL generators.  This example shows that path:

1. write a small structural Verilog netlist by hand (NanGate45-style cells),
2. parse it with :func:`repro.netlist.read_verilog`,
3. convert it to a text-attributed graph and inspect the gate text attributes
   (name, cell type, 2-hop symbolic expression, physical characteristics),
4. run the physical-design and analysis substrates on it (placement,
   parasitics, STA, power, area),
5. embed it with a pre-trained NetTAG,
6. index the embeddings and retrieve the nearest register cones through the
   serving layer (``repro.serve``).

Run with ``python examples/custom_netlist.py``.
"""

import tempfile
from pathlib import Path

from repro.analysis import analyze_area, analyze_power, analyze_timing
from repro.core import NetTAGConfig, NetTAGPipeline
from repro.netlist import extract_register_cones, netlist_to_tag, read_verilog, write_verilog
from repro.physical import extract_parasitics, place
from repro.serve import cone_key

# A tiny sequential design: a 2-bit accumulator with an overflow comparator.
CUSTOM_VERILOG = """
module my_accumulator (clk, in0, in1, out0, out1, overflow);
  input clk;
  input in0;
  input in1;
  output out0;
  output out1;
  output overflow;
  wire s0, s1, c0, c1, n0, n1;
  XOR2_X1 u_add0 (.A(in0), .B(out0), .Z(s0));
  AND2_X1 u_carry0 (.A(in0), .B(out0), .Z(c0));
  XOR2_X1 u_add1a (.A(in1), .B(out1), .Z(n0));
  XOR2_X1 u_add1b (.A(n0), .B(c0), .Z(s1));
  AND2_X1 u_carry1a (.A(in1), .B(out1), .Z(n1));
  AND2_X1 u_carry1b (.A(n0), .B(c0), .Z(c1));
  OR2_X1 u_carry_out (.A(n1), .B(c1), .Z(overflow));
  DFF_X1 r_acc0 (.D(s0), .CK(clk), .Q(out0));
  DFF_X1 r_acc1 (.D(s1), .CK(clk), .Q(out1));
endmodule
"""


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Parse the structural Verilog.
    # ------------------------------------------------------------------
    netlist = read_verilog(CUSTOM_VERILOG, from_string=True)
    print("parsed", netlist.name, "with", netlist.num_gates, "gates")
    print("  cell counts:", netlist.cell_type_counts())
    print("  registers:", [gate.name for gate in netlist.registers])

    # ------------------------------------------------------------------
    # 2. Text-attributed graph: inspect a gate's text attribute.
    # ------------------------------------------------------------------
    tag = netlist_to_tag(netlist, k=2)
    print("\nTAG has", tag.num_nodes, "nodes and", tag.graph.num_edges, "edges")
    sample = next(node for node in tag.nodes if node.name == "u_add1b")
    print("text attribute of gate u_add1b:")
    print(" ", sample.text)

    # ------------------------------------------------------------------
    # 3. Register cones (the chunking used for sequential circuits).
    # ------------------------------------------------------------------
    cones = extract_register_cones(netlist)
    for cone in cones:
        print(f"\nregister cone for {cone.register_name}: {cone.num_gates} gates")

    # ------------------------------------------------------------------
    # 4. Physical design + analysis substrates.
    # ------------------------------------------------------------------
    placement = place(netlist)
    spef = extract_parasitics(netlist, placement)
    timing = analyze_timing(netlist, spef=spef)
    power = analyze_power(netlist, spef=spef)
    area = analyze_area(netlist, placement)
    print("\nanalysis reports:")
    print("  worst slack:", round(timing.worst_negative_slack, 4), "ns")
    print("  total power:", round(power.total, 4), "uW-equivalent units")
    print("  total area:", round(area.total, 4), "um^2-equivalent units")

    # ------------------------------------------------------------------
    # 5. Embed with a pre-trained NetTAG.
    # ------------------------------------------------------------------
    print("\npre-training a small NetTAG to embed the custom netlist ...")
    pipeline = NetTAGPipeline(NetTAGConfig.fast())
    pipeline.pretrain(designs_per_suite=1)
    embedding = pipeline.embed_circuit(netlist)
    print("  circuit embedding dim:", embedding.dim)
    print("  per-gate embeddings:", embedding.gate_embeddings.shape)
    print("  register-cone embeddings:", sorted(embedding.cone_embeddings))

    # ------------------------------------------------------------------
    # 6. Index the corpus (pre-training designs + the custom netlist) and
    #    retrieve the nearest register cones for one of ours.
    # ------------------------------------------------------------------
    index_dir = Path(tempfile.mkdtemp(prefix="nettag-custom-")) / "index"
    pipeline.build_index(index_dir)
    with pipeline.serve(index=index_dir) as service:
        service.add_netlists([netlist])
        own_key = cone_key(netlist.name, cones[0].register_name)
        hits = service.query(cones[0], "cone", k=3, exclude_keys=[own_key])
        print(f"\nnearest indexed cones to {netlist.name}::{cones[0].register_name}:")
        for hit in hits:
            print(f"  {hit.score:+.4f}  {hit.key}")

    # Round-trip check: the netlist can be written back out as Verilog.
    round_trip = read_verilog(write_verilog(netlist), from_string=True)
    assert round_trip.num_gates == netlist.num_gates
    print("\nVerilog round-trip OK")


if __name__ == "__main__":
    main()
