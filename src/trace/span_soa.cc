#include "trace/span_soa.h"

namespace traceweaver {

void SpanColumns::Build(std::span<const Span* const> src) {
  client_send.resize(src.size());
  client_recv.resize(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    client_send[i] = src[i]->client_send;
    client_recv[i] = src[i]->client_recv;
  }
}

}  // namespace traceweaver
