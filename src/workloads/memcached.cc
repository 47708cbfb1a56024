#include "src/workloads/memcached.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace kite {

MemcachedServer::MemcachedServer(EtherStack* stack, uint16_t port, MemcachedParams params)
    : stack_(stack), params_(params) {
  stack_->ListenTcp(port, [this](TcpConn* conn) {
    auto session = std::make_shared<Session>();
    conn->SetDataCallback([this, conn, session](std::span<const uint8_t> data) {
      session->inbuf.append(reinterpret_cast<const char*>(data.data()), data.size());
      Process(conn, session.get());
    });
  });
}

bool MemcachedServer::NextReply(Session* session, std::string* reply) {
  std::string& inbuf = session->inbuf;
  if (!session->set_pending) {
    const size_t eol = inbuf.find("\r\n");
    if (eol == std::string::npos) {
      return false;
    }
    const std::string_view line(inbuf.data(), eol);
    if (line.starts_with("set ")) {
      // "set <key> <flags> <exptime> <bytes>"
      const auto parts = SplitPath(line, ' ');
      if (parts.size() < 5) {
        inbuf.erase(0, eol + 2);
        *reply = "CLIENT_ERROR bad command line\r\n";
        return true;
      }
      const int64_t bytes = ParseDecimal(parts[4]);
      if (bytes < 0) {
        return false;  // Never completes: the connection stalls on this line.
      }
      session->set_pending = true;
      session->set_key = parts[1];
      session->set_data_at = eol + 2;
      session->set_bytes = static_cast<size_t>(bytes);
    } else if (line.starts_with("get ")) {
      const std::string key(line.substr(4));
      inbuf.erase(0, eol + 2);
      ++gets_;
      auto it = store_.find(key);
      if (it == store_.end()) {
        *reply = "END\r\n";
        op_bytes_ = 0;
        return true;
      }
      ++hits_;
      const std::string& value = it->second;
      const std::string size = std::to_string(value.size());
      reply->clear();
      // 18: the fixed text "VALUE ", " 0 ", "\r\n" and "\r\nEND\r\n".
      reply->reserve(18 + key.size() + size.size() + value.size());
      reply->append("VALUE ").append(key).append(" 0 ").append(size).append("\r\n");
      reply->append(value).append("\r\nEND\r\n");
      op_bytes_ = value.size();
      return true;
    } else {
      inbuf.erase(0, eol + 2);
      *reply = "ERROR\r\n";
      return true;
    }
  }
  // The header was parsed on an earlier segment (or just now): wait for the
  // whole data block plus its CRLF.
  const size_t end = session->set_data_at + session->set_bytes + 2;
  if (inbuf.size() < end) {
    return false;
  }
  store_[session->set_key].assign(inbuf, session->set_data_at, session->set_bytes);
  inbuf.erase(0, end);
  session->set_pending = false;
  ++sets_;
  op_bytes_ = session->set_bytes;
  *reply = "STORED\r\n";
  return true;
}

void MemcachedServer::Process(TcpConn* conn, Session* session) {
  std::string reply;
  while (NextReply(session, &reply)) {
    if (stack_->vcpu() == nullptr) {
      conn->Send(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(reply.data()),
                                          reply.size()));
    } else {
      // Reply at CPU-completion time (server work serializes).
      SimTime cpu_done;
      {
        CpuScope cpu_scope(KITE_CPU_CATEGORY("app/workload"));
        cpu_done = stack_->vcpu()->Charge(
            params_.per_op_cost + Nanos(static_cast<int64_t>(params_.per_byte_ns * op_bytes_)));
      }
      op_bytes_ = 0;
      stack_->executor()->PostAt(
          cpu_done, KITE_POST_SITE("memcached/reply"),
          [conn, alive = conn->AliveGuard(), reply = std::move(reply)] {
            if (*alive && !conn->closed()) {
              conn->Send(std::span<const uint8_t>(
                  reinterpret_cast<const uint8_t*>(reply.data()), reply.size()));
            }
          });
    }
    if (conn->closed()) {
      return;
    }
  }
}

// --- MemtierBench. ---

struct MemtierBench::Conn {
  TcpConn* conn = nullptr;
  std::string inbuf;
  SimTime op_started;
  bool waiting_set = false;  // Current op is a set (expects STORED).
  bool busy = false;
};

MemtierBench::MemtierBench(EtherStack* client, Ipv4Addr server_ip, uint16_t port,
                           MemtierConfig config)
    : client_(client), server_ip_(server_ip), port_(port), config_(config) {}

MemtierBench::~MemtierBench() = default;

void MemtierBench::Run(std::function<void(const MemtierResult&)> done) {
  done_ = std::move(done);
  started_at_ = client_->executor()->Now();
  for (int i = 0; i < config_.connections; ++i) {
    auto c = std::make_unique<Conn>();
    Conn* raw = c.get();
    conns_.push_back(std::move(c));
    raw->conn =
        client_->ConnectTcp(server_ip_, port_, [this, raw](TcpConn*) { IssueNext(raw); });
    raw->conn->SetDataCallback([this, raw](std::span<const uint8_t> data) {
      raw->inbuf.append(reinterpret_cast<const char*>(data.data()), data.size());
      // One outstanding op per connection: the response is complete when the
      // terminator for its type has arrived.
      const bool complete = raw->waiting_set
                                ? raw->inbuf.find("STORED\r\n") != std::string::npos ||
                                      raw->inbuf.find("ERROR") != std::string::npos
                                : raw->inbuf.find("END\r\n") != std::string::npos;
      if (complete) {
        raw->inbuf.clear();
        OnOpDone(raw);
      }
    });
  }
}

void MemtierBench::IssueNext(Conn* c) {
  if (finished_ || issued_ >= config_.total_ops) {
    return;
  }
  ++issued_;
  c->busy = true;
  c->op_started = client_->executor()->Now();
  const std::string key =
      StrFormat("memtier-%08llu",
                static_cast<unsigned long long>(rng_.NextBelow(config_.key_space)));
  std::string req;
  // 1:N set:get ratio — a set with probability ratio/(1+ratio).
  if (rng_.NextBool(config_.set_get_ratio / (1.0 + config_.set_get_ratio))) {
    c->waiting_set = true;
    req = StrFormat("set %s 0 0 %zu\r\n", key.c_str(), config_.value_bytes);
    req.append(config_.value_bytes, 'd');
    req += "\r\n";
  } else {
    c->waiting_set = false;
    req = StrFormat("get %s\r\n", key.c_str());
  }
  c->conn->Send(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(req.data()),
                                         req.size()));
}

void MemtierBench::OnOpDone(Conn* c) {
  c->busy = false;
  ++completed_;
  result_.latency_ms.Add((client_->executor()->Now() - c->op_started).ms());
  if (completed_ >= config_.total_ops) {
    if (!finished_) {
      finished_ = true;
      const double elapsed = (client_->executor()->Now() - started_at_).seconds();
      result_.elapsed_s = elapsed;
      result_.completed = completed_;
      result_.avg_latency_ms = result_.latency_ms.Mean();
      result_.ops_per_sec = elapsed > 0 ? completed_ / elapsed : 0;
      if (done_) {
        done_(result_);
      }
    }
    return;
  }
  IssueNext(c);
}

}  // namespace kite
