#include "serving/server.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace splpg::serving {

using graph::NodeId;
using sampling::NodePair;

ServingServer::ServingServer(const nn::ServingModel& model, ServingConfig config)
    : model_(&model),
      config_(std::move(config)),
      cache_(config_.cache_capacity, model.row_bytes()),
      queue_(config_.queue_capacity) {
  if (config_.batch_size == 0) config_.batch_size = 1;
  scorer_ = std::thread([this] { scorer_loop_(); });
}

ServingServer::~ServingServer() { shutdown(); }

std::future<ScoredReply> ServingServer::submit(std::vector<NodePair> pairs) {
  for (const NodePair& pair : pairs) {
    if (pair.u >= model_->num_nodes() || pair.v >= model_->num_nodes()) {
      throw std::out_of_range("ServingServer::submit: node id out of range");
    }
  }
  if (!accepting_.load(std::memory_order_acquire)) {
    throw std::runtime_error("ServingServer::submit: server is shut down");
  }
  Request request;
  request.pairs = std::move(pairs);
  std::future<ScoredReply> future = request.promise.get_future();
  if (!queue_.push(std::move(request))) {
    // Lost the race with shutdown(): the queue closed before our push landed,
    // so the scorer will never see this request.
    throw std::runtime_error("ServingServer::submit: server is shut down");
  }
  return future;
}

ScoredReply ServingServer::score_pairs(std::span<const NodePair> pairs) {
  return submit(std::vector<NodePair>(pairs.begin(), pairs.end())).get();
}

void ServingServer::shutdown() {
  if (accepting_.exchange(false, std::memory_order_acq_rel)) {
    queue_.close();  // scorer drains accepted requests, then exits
    scorer_.join();
  }
}

void ServingServer::clear_cache() { cache_.clear(); }

ServingStats ServingServer::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void ServingServer::scorer_loop_() {
  // Requests accepted but not yet fully scored, in arrival (FIFO) order.
  struct InFlight {
    Request request;
    std::vector<float> scores;
    std::size_t scored = 0;  // pairs of this request already scored
  };
  std::deque<InFlight> pending;
  std::size_t unscored = 0;      // total unscored pairs across `pending`
  std::uint64_t batch_index = 0;
  std::uint64_t sequence = 0;

  const auto admit = [&](Request&& request) {
    InFlight in_flight;
    in_flight.scores.resize(request.pairs.size());
    unscored += request.pairs.size();
    in_flight.request = std::move(request);
    pending.push_back(std::move(in_flight));
  };
  const auto fulfill_ready = [&] {
    while (!pending.empty() &&
           pending.front().scored == pending.front().request.pairs.size()) {
      InFlight done = std::move(pending.front());
      pending.pop_front();
      ScoredReply reply;
      reply.scores = std::move(done.scores);
      reply.sequence = ++sequence;
      {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.requests;
        stats_.pairs += reply.scores.size();
      }
      done.request.promise.set_value(std::move(reply));
    }
  };

  while (true) {
    if (pending.empty()) {
      auto request = queue_.pop();  // blocks; nullopt == closed and drained
      if (!request.has_value()) break;
      admit(std::move(request).value());
    }
    // Coalesce whatever else is already queued, up to one full batch.
    while (unscored < config_.batch_size) {
      auto request = queue_.try_pop();
      if (!request.has_value()) break;
      admit(std::move(request).value());
    }
    fulfill_ready();  // zero-pair requests complete without a batch
    if (unscored == 0) continue;

    // Assemble the next batch FIFO across requests: (request, pair) slots.
    struct Slot {
      InFlight* in_flight;
      std::size_t pair;
    };
    std::vector<Slot> slots;
    slots.reserve(std::min(unscored, config_.batch_size));
    for (auto& in_flight : pending) {
      for (std::size_t i = in_flight.scored; i < in_flight.request.pairs.size(); ++i) {
        if (slots.size() == config_.batch_size) break;
        slots.push_back({&in_flight, i});
      }
      if (slots.size() == config_.batch_size) break;
    }

    const std::uint64_t this_batch = batch_index++;
    std::vector<float> scores;
    try {
      if (config_.batch_hook) config_.batch_hook(this_batch);

      // Resolve each distinct endpoint's row once per batch: cache hit = row
      // copy, miss = exact recompute + insert. Map nodes are stable, so the
      // row pointers below survive later insertions.
      std::unordered_map<NodeId, std::vector<std::byte>> rows;
      const auto resolve = [&](NodeId node) -> const std::byte* {
        auto it = rows.find(node);
        if (it == rows.end()) {
          std::vector<std::byte> row(model_->row_bytes());
          if (!cache_.lookup(node, row)) {
            model_->compute_row(node, row);
            cache_.insert(node, row);
          }
          it = rows.emplace(node, std::move(row)).first;
        }
        return it->second.data();
      };
      std::vector<const std::byte*> u_rows(slots.size());
      std::vector<const std::byte*> v_rows(slots.size());
      for (std::size_t i = 0; i < slots.size(); ++i) {
        const NodePair& pair = slots[i].in_flight->request.pairs[slots[i].pair];
        u_rows[i] = resolve(pair.u);
        v_rows[i] = resolve(pair.v);
      }
      scores = model_->score_rows(u_rows, v_rows);
    } catch (...) {
      // None of the batch's pairs is scored yet. Every request with a pair
      // in it gets the exception through its future (slots list each
      // request's pairs together), and the scorer goes on with the rest.
      std::vector<InFlight*> failed;
      for (const Slot& slot : slots) {
        if (failed.empty() || failed.back() != slot.in_flight) failed.push_back(slot.in_flight);
      }
      for (InFlight* in_flight : failed) {
        unscored -= in_flight->request.pairs.size() - in_flight->scored;
        in_flight->request.promise.set_exception(std::current_exception());
      }
      std::erase_if(pending, [&](const InFlight& in_flight) {
        return std::find(failed.begin(), failed.end(), &in_flight) != failed.end();
      });
      continue;  // the loop's head completes zero-pair requests left at the front
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
      slots[i].in_flight->scores[slots[i].pair] = scores[i];
      ++slots[i].in_flight->scored;
    }
    unscored -= slots.size();
    {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.batches;
    }
    fulfill_ready();
  }
}

}  // namespace splpg::serving
