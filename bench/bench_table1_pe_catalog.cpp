/**
 * @file
 * Table 1 + Table 4: the PE catalog - latency, leakage, dynamic power
 * per electrode, and area of every accelerator in a SCALO node, with
 * derived node-level totals.
 */

#include "bench_util.hpp"
#include "scalo/hw/fabric.hpp"
#include "scalo/hw/pe.hpp"
#include "scalo/util/table.hpp"

int
main()
{
    using namespace scalo;
    bench::banner("Table 1: Latency and Power of the PEs",
                  "31 PEs, 28 nm FD-SOI, worst variation corner");

    TextTable table({"PE", "function", "fmax (MHz)", "leak (uW)",
                     "SRAM (uW)", "dyn/elec (uW)", "latency (ms)",
                     "area (KGE)"});
    for (const auto &pe : hw::peCatalog()) {
        std::string latency = "-";
        if (pe.latency) {
            latency = TextTable::num(pe.latency->count(), 3);
            if (pe.latencyMax)
                latency.append("-").append(
                    TextTable::num(pe.latencyMax->count(), 1));
        }
        table.addRow({std::string(pe.name), std::string(pe.function),
                      TextTable::num(pe.maxFreq.count(), 3),
                      TextTable::num(pe.leakage.count(), 2),
                      TextTable::num(pe.sramLeakage.count(), 2),
                      TextTable::num(pe.dynPerElectrode.count(), 3),
                      latency, TextTable::num(pe.areaKge, 0)});
    }
    table.print();

    const hw::NodeFabric fabric;
    std::printf("\nnode fabric: %.2f mW idle leakage, %.0f KGE total "
                "area (10x BMUL in the LIN ALG cluster)\n",
                fabric.idlePower().in<units::Milliwatts>(),
                fabric.areaKge());
    std::printf("MC: %.0f MHz RISC-V, %.0f KB SRAM\n",
                hw::mcSpec().freq.count(), hw::mcSpec().sram.count());
    return 0;
}
