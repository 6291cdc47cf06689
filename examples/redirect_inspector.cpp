// Redirect inspector: walks a single shared line through SUV's complete
// entry lifecycle -- fresh redirect, commit-publication, toggle-back,
// toggle-commit deletion, and abort-revert -- printing the redirect entry's
// state and both memory locations at each step. A narrated version of the
// paper's Figure 4.
//
//   $ ./build/examples/redirect_inspector
#include <cstdio>

#include "sim/simulator.hpp"
#include "stamp/framework.hpp"
#include "suv/redirect_entry.hpp"
#include "vm/suv_vm.hpp"

using namespace suvtm;

namespace {

constexpr Addr kVar = 0x10000;  // the shared variable under inspection

void show(sim::Simulator& sim, vm::SuvVm& vm, const char* step) {
  const suv::RedirectEntry* e = vm.table().find(line_of(kVar));
  std::printf("%-34s", step);
  if (!e) {
    std::printf("entry: none                     value@original=%llu\n",
                static_cast<unsigned long long>(sim.mem().load_word(kVar)));
    return;
  }
  std::printf("entry: %-24s original=%llu target=%llu resolved=%llu\n",
              suv::entry_state_name(e->state),
              static_cast<unsigned long long>(sim.mem().load_word(kVar)),
              static_cast<unsigned long long>(
                  sim.mem().load_word(addr_of_line(e->target) | (kVar & 63))),
              static_cast<unsigned long long>(sim.read_word_resolved(kVar)));
}

sim::ThreadTask scenario(sim::ThreadContext& tc, sim::Simulator& sim,
                         vm::SuvVm& vm) {
  show(sim, vm, "initial (value 7)");

  // 1. Fresh redirect: a transaction stores 42.
  co_await tc.tx_begin(1);
  co_await tc.store(kVar, 42);
  show(sim, vm, "in txn #1 after store 42");
  co_await tc.tx_commit();
  show(sim, vm, "txn #1 committed (published)");

  // 2. Toggle: a second transaction stores 99 to the redirected line.
  co_await tc.tx_begin(2);
  co_await tc.store(kVar, 99);
  show(sim, vm, "in txn #2 after store 99");
  co_await tc.tx_commit();
  show(sim, vm, "txn #2 committed (entry deleted)");

  // 3. Abort: a third transaction stores 123 but aborts.
  bool aborted = false;
  try {
    co_await tc.tx_begin(3);
    co_await tc.store(kVar, 123);
    show(sim, vm, "in txn #3 after store 123");
    // Self-inflicted abort via doom: model an incoming conflict.
    sim.htm().doom(tc.core());
    co_await tc.tx_commit();
  } catch (const sim::TxAbort&) {
    aborted = true;
  }
  show(sim, vm, aborted ? "txn #3 aborted (reverted)" : "txn #3 ???");
}

}  // namespace

int main() {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  sim::Simulator sim(cfg);
  vm::SuvVm* vm = vm::suv_backend(sim.htm().vm());
  if (!vm) return 1;

  sim.poke_word(kVar, 7);
  std::printf("SUV redirect-entry lifecycle for one shared variable "
              "(paper Figure 4):\n\n");
  sim.spawn(0, scenario(sim.context(0), sim, *vm));
  sim.run();

  const auto& s = vm->suv_stats();
  std::printf("\nentry statistics: %llu created, %llu toggled, %llu "
              "published, %llu deleted, %llu discarded\n",
              static_cast<unsigned long long>(s.entries_created),
              static_cast<unsigned long long>(s.entries_toggled),
              static_cast<unsigned long long>(s.entries_published),
              static_cast<unsigned long long>(s.entries_deleted),
              static_cast<unsigned long long>(s.entries_discarded));
  std::printf("final value: %llu (expected 99: txn #3's 123 rolled back)\n",
              static_cast<unsigned long long>(sim.read_word_resolved(kVar)));
  return sim.read_word_resolved(kVar) == 99 ? 0 : 1;
}
