#include "sim/machine.hpp"

#include <bit>
#include <stdexcept>

#include "sim/snapshot/codec.hpp"

namespace pjsb::sim {

Machine::Machine(std::int64_t total_nodes)
    : owner_(std::size_t(total_nodes), kFree), free_(total_nodes) {
  if (total_nodes <= 0) {
    throw std::invalid_argument("Machine: need at least one node");
  }
  free_bits_.assign((owner_.size() + 63) / 64, ~std::uint64_t(0));
  if (const std::size_t tail = owner_.size() % 64; tail != 0) {
    free_bits_.back() = (std::uint64_t(1) << tail) - 1;
  }
}

std::optional<std::vector<std::int64_t>> Machine::allocate(
    std::int64_t job_id, std::int64_t count) {
  if (count <= 0) throw std::invalid_argument("allocate: count must be > 0");
  if (count > free_) return std::nullopt;
  std::vector<std::int64_t> nodes;
  nodes.reserve(std::size_t(count));
  std::int64_t left = count;
  for (std::size_t w = 0; left > 0; ++w) {
    std::uint64_t bits = free_bits_[w];
    while (bits != 0 && left > 0) {
      const std::int64_t node = std::int64_t(w * 64 + std::countr_zero(bits));
      bits &= bits - 1;  // clear the lowest set bit
      owner_[std::size_t(node)] = job_id;
      nodes.push_back(node);
      --left;
    }
    free_bits_[w] = bits;
  }
  free_ -= count;
  return nodes;
}

void Machine::release(std::int64_t job_id,
                      std::span<const std::int64_t> nodes) {
  for (std::int64_t n : nodes) {
    auto& o = owner_.at(std::size_t(n));
    if (o == kDown) continue;  // node failed while the job ran
    if (o != job_id) {
      throw std::logic_error("release: node not owned by job");
    }
    o = kFree;
    ++free_;
    mark_free(n);
  }
}

std::int64_t Machine::take_down(std::int64_t node) {
  auto& o = owner_.at(std::size_t(node));
  const std::int64_t prev = o;
  if (prev == kDown) return kDown;
  if (prev == kFree) {
    --free_;
    mark_taken(node);
  }
  o = kDown;
  ++down_;
  return prev;
}

void Machine::bring_up(std::int64_t node) {
  auto& o = owner_.at(std::size_t(node));
  if (o != kDown) throw std::logic_error("bring_up: node is not down");
  o = kFree;
  --down_;
  ++free_;
  mark_free(node);
}

std::int64_t Machine::owner(std::int64_t node) const {
  return owner_.at(std::size_t(node));
}

void Machine::save_state(snapshot::Writer& w) const {
  w.u64(owner_.size());
  for (std::int64_t o : owner_) w.i64(o);
}

void Machine::load_state(snapshot::Reader& r) {
  const std::uint64_t n = r.u64();
  if (n != owner_.size()) {
    throw std::runtime_error("Machine::load_state: node count mismatch");
  }
  free_ = 0;
  down_ = 0;
  free_bits_.assign(free_bits_.size(), 0);
  for (std::size_t i = 0; i < owner_.size(); ++i) {
    owner_[i] = r.i64();
    if (owner_[i] == kFree) {
      ++free_;
      mark_free(std::int64_t(i));
    } else if (owner_[i] == kDown) {
      ++down_;
    }
  }
}

}  // namespace pjsb::sim
