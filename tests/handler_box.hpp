// Capturing receive lambdas for tests that drive a bare Network. Network
// dispatches through a (context, function pointer) pair only, so the box
// owns each lambda at a stable address and passes it as the context.
#pragma once

#include <deque>
#include <functional>
#include <utility>

#include "sim/network.hpp"

namespace pmc::testing {

class HandlerBox {
 public:
  using Handler = std::function<void(ProcessId from, const MessagePtr&)>;

  /// Attaches `handler` for `id`. The box must outlive every delivery to
  /// `id`; a re-attach leaves the old handler boxed but unreachable.
  void attach(Network& net, ProcessId id, Handler handler) {
    Handler& boxed = handlers_.emplace_back(std::move(handler));
    net.attach(id, &boxed,
               [](void* ctx, ProcessId from, const MessagePtr& msg) {
                 (*static_cast<Handler*>(ctx))(from, msg);
               });
  }

 private:
  std::deque<Handler> handlers_;  ///< deque: push_back never moves entries
};

}  // namespace pmc::testing
