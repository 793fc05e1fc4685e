// Overload-safe serving: fronting a DyCuckoo table with TableServer, which
// adds a bounded admission queue, per-request deadlines on the virtual
// clock, retry with backoff, a circuit breaker, and an online invariant
// scrubber.  The example drives the server through each regime in turn:
// healthy traffic, queue overflow, deadline expiry, a breaker trip under
// injected allocation failure, and recovery.

#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "gpusim/fault_injector.h"
#include "service/table_server.h"

using dycuckoo::DyCuckooOptions;
using dycuckoo::Status;
using Server = dycuckoo::service::DyCuckooServer;

namespace {

Server::Request MakeInserts(uint32_t first_key, int n, uint64_t deadline = 0) {
  Server::Request req;
  req.deadline = deadline;
  for (int i = 0; i < n; ++i) {
    Server::Op op;
    op.type = Server::OpType::kInsert;
    op.key = first_key + static_cast<uint32_t>(i);
    op.value = op.key * 2;
    req.ops.push_back(op);
  }
  return req;
}

void Show(const char* what, Server& server, uint64_t id) {
  Server::Response resp;
  if (!server.TakeResponse(id, &resp)) {
    std::printf("%-28s id=%llu (still pending)\n", what,
                (unsigned long long)id);
    return;
  }
  std::printf("%-28s id=%llu -> %s (attempts=%u, t=%llu)\n", what,
              (unsigned long long)id, resp.status.ToString().c_str(),
              resp.attempts, (unsigned long long)resp.completed_at);
}

}  // namespace

int main() {
  DyCuckooOptions topt;
  topt.initial_capacity = 4096;
  topt.stash_capacity = 64;

  dycuckoo::service::TableServerOptions sopt;
  sopt.queue_capacity = 4;             // tiny on purpose: show backpressure
  sopt.max_batch_ops = 1024;
  sopt.default_deadline_ticks = 5000;  // every request gets a deadline
  sopt.retry.max_attempts = 3;
  sopt.breaker.failure_threshold = 3;
  sopt.breaker.cooldown_ticks = 200;
  sopt.scrub_buckets_per_step = 32;    // scrub a slice between batches

  std::unique_ptr<Server> server;
  Status st = Server::Create(topt, sopt, &server);
  if (!st.ok()) {
    std::fprintf(stderr, "create failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 1. Healthy traffic: admitted, batched, executed.
  uint64_t ok_id = server->Submit(MakeInserts(1, 1000));
  server->RunUntilIdle();
  Show("healthy insert batch", *server, ok_id);

  // 2. Backpressure: the 5th un-drained request overflows the queue and is
  // rejected immediately with ResourceExhausted — never silently dropped.
  std::vector<uint64_t> burst;
  for (int i = 0; i < 5; ++i) {
    burst.push_back(server->Submit(MakeInserts(10000 + i * 100, 50)));
  }
  Show("burst overflow (last of 5)", *server, burst.back());
  server->RunUntilIdle();
  for (size_t i = 0; i + 1 < burst.size(); ++i) {
    Server::Response resp;
    server->TakeResponse(burst[i], &resp);
  }

  // 3. Deadlines: the server stalls past the request's deadline; the
  // request is rejected with DeadlineExceeded before any op runs.
  uint64_t late_id = server->Submit(MakeInserts(20000, 50, server->now() + 2));
  server->clock()->Advance(100);  // simulated stall
  server->RunUntilIdle();
  Show("request that missed deadline", *server, late_id);

  // 4. Overload: with every device allocation failing and eviction chains
  // clamped, fresh-key inserts fail terminally once the table saturates;
  // after `failure_threshold` consecutive failures the breaker trips and
  // the server degrades to read-only instead of burning the device.
  {
    dycuckoo::gpusim::FaultInjectorConfig cfg;
    cfg.fail_after_allocs = 0;
    cfg.alloc_tag_filter = "dycuckoo";
    cfg.max_eviction_chain = 0;
    dycuckoo::gpusim::ScopedFaultInjection scoped(cfg);
    uint32_t next_key = 1u << 20;
    for (int i = 0; i < 200 && server->breaker().trips() == 0; ++i) {
      Server::Response resp;
      uint64_t id = server->Submit(MakeInserts(next_key, 100));
      next_key += 100;
      server->RunUntilIdle();
      server->TakeResponse(id, &resp);
    }
    std::printf("breaker state after overload: %s (trips=%llu)\n",
                dycuckoo::service::CircuitBreaker::StateName(
                    server->breaker().state()),
                (unsigned long long)server->breaker().trips());
    uint64_t bounced = server->Submit(MakeInserts(1u << 24, 10));
    server->RunUntilIdle();
    Show("write while read-only", *server, bounced);
  }

  // 5. Recovery: the fault cleared; past the cooldown the next write is
  // admitted as the probe, succeeds, and closes the breaker.
  server->clock()->Advance(sopt.breaker.cooldown_ticks + 1);
  uint64_t probe_id = server->Submit(MakeInserts(1u << 25, 10));
  server->RunUntilIdle();
  Show("probe write after cooldown", *server, probe_id);
  std::printf("breaker recovered: %s (recoveries=%llu)\n",
              server->read_only() ? "no" : "yes",
              (unsigned long long)server->breaker().recoveries());

  std::printf("server stats: %s\n",
              server->stats().Capture().ToString().c_str());
  auto t = server->table()->stats().Capture();
  std::printf("scrubber: passes=%llu buckets=%llu misplaced=%llu\n",
              (unsigned long long)t.scrub_passes,
              (unsigned long long)t.scrub_buckets_scanned,
              (unsigned long long)t.scrub_misplaced_found);
  return 0;
}
